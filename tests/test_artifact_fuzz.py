"""File readers on damaged files: every load succeeds or raises ``ReidSgmError``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reid_sgm.ccl import CclModel, load_models, save_models
from reid_sgm.descriptor import (
    DescriptorSet,
    ExtractionConfig,
    extract_features,
    load_descriptors,
    save_descriptors,
)
from reid_sgm.errors import ReidSgmError
from reid_sgm.imaging import load_image, load_mask, write_pgm, write_ppm

from conftest import make_image, make_mask


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
        matrix=np.vstack([rep.vector for rep in reps]), layout=reps[0].layout,
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
