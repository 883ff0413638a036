"""File readers on damaged files: every load succeeds or raises ``ReidSgmError``.

The shared ``artifact`` reader is driven directly as well: each damaged
container ends in ``CorruptFile`` or ``UnsupportedFormat``.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reid_sgm import __version__, artifact
from reid_sgm.ccl import CclModel, load_models, save_models
from reid_sgm.descriptor import (
    DescriptorSet,
    ExtractionConfig,
    extract_features,
    layout,
    load_descriptors,
    save_descriptors,
)
from reid_sgm.errors import CorruptFile, ReidSgmError, UnsupportedFormat
from reid_sgm.imaging import load_image, load_mask, write_pgm, write_ppm

from conftest import join_artifact, make_image, make_mask, split_artifact


def small_models():
    rng = np.random.default_rng(4)

    def model(dim, rank):
        return CclModel(
            w=rng.standard_normal((dim, rank)),
            a=rng.uniform(0.5, 2.0, rank),
            b=rng.uniform(0.5, 2.0, rank),
            mean_x=rng.standard_normal(dim),
            mean_y=rng.standard_normal(dim),
        )

    return {"SGM": model(6, 2), "CH": model(4, 3)}


READERS = ["sgmd", "cclm", "ppm", "pgm"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, palette):
    """Reader and intact bytes for each file kind, plus a scratch path."""
    root = tmp_path_factory.mktemp("fuzz")
    config = ExtractionConfig(features=("SGM", "CH", "SILTP"), stripes=2)
    image = make_image(9, 12, seed=0)
    mask = make_mask(9, 12, border=2)
    reps = [extract_features(make_image(9, 12, seed=i), mask, config, palette=palette)
            for i in range(2)]
    save_descriptors(root / "d.sgmd", DescriptorSet(
        matrix=np.vstack(reps), layout=layout(config, foreground=True),
        source_ids=("img0", "img1")))
    save_models(root / "m.cclm", small_models())
    write_ppm(root / "i.ppm", image.pixels)
    write_pgm(root / "m.pgm", mask.values * 255)
    return {
        "sgmd": (load_descriptors, (root / "d.sgmd").read_bytes()),
        "cclm": (load_models, (root / "m.cclm").read_bytes()),
        "ppm": (load_image, (root / "i.ppm").read_bytes()),
        "pgm": (lambda path: load_mask(path, image), (root / "m.pgm").read_bytes()),
        "out": root / "damaged.bin",
    }


@st.composite
def damage(draw):
    """A cut point as a fraction of the length, plus byte flips at fractional offsets."""
    cut = draw(st.none() | st.floats(0.0, 1.0))
    flips = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 255)), max_size=4))
    return cut, flips


def damaged(data: bytes, cut, flips) -> bytes:
    buf = bytearray(data)
    for where, mask in flips:
        at = min(int(where * len(buf)), len(buf) - 1)
        buf[at] ^= mask
    if cut is not None:
        del buf[int(cut * len(buf)) :]
    return bytes(buf)


@pytest.mark.parametrize("kind", READERS)
@settings(max_examples=150, deadline=None)
@given(change=damage())
def test_damaged_file_loads_or_raises_typed_error(artifacts, kind, change):
    reader, data = artifacts[kind]
    path = artifacts["out"]
    path.write_bytes(damaged(data, *change))
    try:
        reader(path)
    except ReidSgmError:
        pass


@pytest.mark.parametrize("kind", READERS)
def test_every_truncation_is_rejected(artifacts, kind):
    reader, data = artifacts[kind]
    path = artifacts["out"]
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ReidSgmError):
            reader(path)


MAGIC, VERSION, KIND = b"TEST", 7, "sample"
REFUSED = (CorruptFile, UnsupportedFormat)


@pytest.fixture()
def container(tmp_path):
    """A path to write damaged files to, and an intact container's bytes:
    a (2, 3) float32 array and a (4,) float64 one."""
    path = tmp_path / "a.bin"
    arrays = {"m": np.arange(6, dtype=np.float32).reshape(2, 3), "v": np.linspace(0, 1, 4)}
    artifact.write(path, MAGIC, VERSION, KIND, arrays, {"seed": 3}, extra=[1, 2])
    return path, path.read_bytes()


def read(path):
    return artifact.read(path, MAGIC, VERSION, KIND, "rebuild the sample")


def rewritten(path, data, payload=None, edit=None, footer=None):
    """``data`` with its array bytes or footer replaced, written to ``path``."""
    head, intact, parsed = split_artifact(data)
    if edit is not None:
        edit(parsed)
    path.write_bytes(join_artifact(head, intact if payload is None else payload,
                                   parsed if footer is None else footer))
    return path


def test_container_round_trips(container):
    path, data = container
    footer, arrays = read(path)
    assert footer == {"kind": KIND, "provenance": {"version": __version__, "seed": 3},
                      "arrays": {"m": ["<f4", [2, 3]], "v": ["<f8", [4]]}, "extra": [1, 2]}
    assert data[:14] == MAGIC + struct.pack("<HII", VERSION, 2, 3)
    assert np.array_equal(arrays["m"], np.arange(6).reshape(2, 3))
    assert np.array_equal(arrays["v"], np.linspace(0, 1, 4))
    assert all(a.flags.aligned and a.flags.writeable for a in arrays.values())


@pytest.mark.parametrize("region", ["head", "array", "footer", "trailer"])
def test_every_truncation_is_refused(container, region):
    path, data = container
    footer_start = len(data) - 4 - struct.unpack("<I", data[-4:])[0]
    cuts = {"head": range(0, 14), "array": range(14, footer_start),
            "footer": range(footer_start, len(data) - 4), "trailer": range(len(data) - 4, len(data))}
    for cut in cuts[region]:
        path.write_bytes(data[:cut])
        with pytest.raises(REFUSED):
            read(path)


@pytest.mark.parametrize("length", [lambda n: n, lambda n: n - 17, lambda n: 2**32 - 1])
def test_footer_length_past_the_file(container, length):
    path, data = container
    path.write_bytes(data[:-4] + struct.pack("<I", length(len(data))))
    with pytest.raises(CorruptFile, match="runs past the header"):
        read(path)


@pytest.mark.parametrize("entry, message", [
    (["<f8", [3]], "8 bytes lie between the arrays and the footer"),  # a gap
    (["<f8", [5]], "array 'v' runs past the footer"),                  # an overlap
    (["<i4", [8]], "bad table entry"),
    (["float64", [4]], "bad table entry"),
    ([8, [4]], "bad table entry"),
    (["<f8", [-4]], "bad table entry"),
    (["<f8", [4.0]], "bad table entry"),
    (["<f8", [True, 4]], "bad table entry"),
    (["<f8", "4"], "bad table entry"),
    (["<f8"], "bad table entry"),
    ({"dtype": "<f8"}, "bad table entry"),
])
def test_bad_array_table_is_corrupt(container, entry, message):
    path, data = container

    def edit(footer):
        footer["arrays"]["v"] = entry

    with pytest.raises(CorruptFile, match=message):
        read(rewritten(path, data, edit=edit))


def test_arrays_in_another_order_do_not_fill_as_listed(container):
    path, data = container

    def edit(footer):
        footer["arrays"] = {"v": footer["arrays"]["v"], "m": footer["arrays"]["m"]}

    with pytest.raises(CorruptFile, match="the header's shape"):
        read(rewritten(path, data, edit=edit))


@pytest.mark.parametrize("footer, message", [
    (b'{"kind": "sample", "provenance": {}, "arrays": {"m": ["<f4", [2, 3]]}, "\xff": 1}',
     "not UTF-8 JSON"),
    (b"[]", "not a JSON object"),
    (b"5", "not a JSON object"),
    (b"null", "not a JSON object"),
    (b'{"kind": "sample"', "not UTF-8 JSON"),
    (b'{"kind": "sample", "provenance": {}, "arrays": {}} {}', "not UTF-8 JSON: Extra data"),
    (b"[" * 100000, "not UTF-8 JSON"),
])
def test_footer_that_is_not_a_json_object_is_corrupt(container, footer, message):
    path, data = container
    with pytest.raises(CorruptFile, match=message):
        read(rewritten(path, data, footer=footer))


@pytest.mark.parametrize("field, value", [
    ("kind", "descriptors"), ("kind", None), ("provenance", None), ("provenance", []),
    ("arrays", {}), ("arrays", None), ("arrays", [["m", "<f4", [2, 3]]]),
])
def test_footer_fields_the_reader_needs(container, field, value):
    path, data = container

    def edit(footer):
        footer[field] = value

    with pytest.raises(CorruptFile, match="not a JSON object of kind 'sample'"):
        read(rewritten(path, data, edit=edit))


def test_head_shape_must_be_the_first_array_s(container):
    path, data = container
    path.write_bytes(data[:6] + struct.pack("<II", 3, 2) + data[14:])
    with pytest.raises(CorruptFile, match=r"the header's shape \(3, 2\)"):
        read(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_is_corrupt(container, value):
    path, data = container
    payload = bytearray(split_artifact(data)[1])
    payload[24 + 16 : 24 + 24] = struct.pack("<d", value)  # v[2], after m's 24 bytes
    with pytest.raises(CorruptFile, match=r"array 'v' holds a non-finite value at \(2,\)"):
        read(rewritten(path, data, payload=bytes(payload)))


def test_magic_and_version_are_unsupported(container):
    path, data = container
    path.write_bytes(b"TSET" + data[4:])
    with pytest.raises(UnsupportedFormat, match="bad magic"):
        read(path)
    path.write_bytes(data[:4] + struct.pack("<H", 6) + data[6:])
    with pytest.raises(UnsupportedFormat, match="unsupported version 6; rebuild the sample"):
        read(path)


@settings(max_examples=200, deadline=None)
@given(change=damage())
def test_damaged_container_is_read_or_refused(tmp_path_factory, change):
    # Damage anywhere, beyond the cases above: the reader returns or refuses.
    path = tmp_path_factory.getbasetemp() / "damaged_container.bin"
    arrays = {"m": np.arange(6, dtype=np.float32).reshape(2, 3), "v": np.linspace(0, 1, 4)}
    artifact.write(path, MAGIC, VERSION, KIND, arrays, {"seed": 3})
    path.write_bytes(damaged(path.read_bytes(), *change))
    try:
        read(path)
    except REFUSED:
        pass
