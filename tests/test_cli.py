"""Command-line interface: workflows, determinism, exit codes."""

import ast
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from reid_sgm import ccl, cli, descriptor, imaging
from reid_sgm.cli import _commands, _extraction_config, _options, build_parser, main, parse_args
from reid_sgm.descriptor import ExtractionConfig, load_descriptors
from reid_sgm.ccl import load_models
from reid_sgm.errors import CorruptFile
from reid_sgm.evalkit import SynthSpec, load_manifest, make_splits, synth_dataset
from reid_sgm.imaging import _read_pnm
from reid_sgm.sgm import default_palette

from conftest import (BAD_IMAGE_FILES, array_offset, join_artifact, per_split_eval_csv,
                      split_artifact)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small synthetic corpus shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli_corpus")
    spec = root / "spec.cfg"
    spec.write_text(
        "n_ids = 12\nview_gain = 0.3\nnoise = 20\nillum_jitter = 0.2\nseed = 31\n"
    )
    out = root / "corpus"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def descriptors(corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_desc")
    path = root / "d.sgmd"
    code = main([
        "extract", str(corpus / "manifest.csv"), "--out", str(path),
        "--spaces", "RGB,HSV",
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def model(corpus, descriptors, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_model")
    path = root / "m.cclm"
    code = main([
        "train", str(descriptors), str(corpus / "manifest.csv"),
        "--out", str(path), "--r", "20", "--fraction", "0.5", "--seed", "9",
    ])
    assert code == 0
    return path


class TestSynth:
    def test_counts_and_manifest(self, corpus):
        manifest = load_manifest(corpus / "manifest.csv")
        assert len(manifest.entries) == 24
        assert len(manifest.person_ids()) == 12

    def test_refuses_nonempty_dir(self, corpus, capsys):
        assert main(["synth", "--out", str(corpus)]) == 2
        assert "--force" in capsys.readouterr().err

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec = tmp_path / "s.cfg"
        spec.write_text("n_ids = 2\nseed = 1\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "a"),
                     "--seed", "2"]) == 0
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "images" / "id0_camA_0.ppm").read_bytes()
        b = (tmp_path / "b" / "images" / "id0_camA_0.ppm").read_bytes()
        assert a != b

    def test_spec_honors_every_field(self, tmp_path):
        spec = tmp_path / "s.cfg"
        spec.write_text("n_ids = 2\nnoise = 5\nillum_jitter = 0.4\nseed = 3\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "cli")]) == 0
        synth_dataset(
            SynthSpec(n_ids=2, noise=5.0, illum_jitter=0.4, seed=3), tmp_path / "lib"
        )
        plain = tmp_path / "plain"
        synth_dataset(SynthSpec(n_ids=2, noise=5.0, seed=3), plain)
        name = "images/id0_camA_0.ppm"
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()
        assert (tmp_path / "cli" / name).read_bytes() != (plain / name).read_bytes()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["noise", "view_gain", "mix_noise", "illum_jitter"])
    def test_non_finite_spec_value_is_usage_error(self, tmp_path, capsys, key, value):
        spec = tmp_path / "s.cfg"
        spec.write_text(f"n_ids = 2\n{key} = {value}\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert key in err and value in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("key", ["images_per_view", "width", "height", "regions"])
    def test_spec_size_below_one_is_usage_error(self, tmp_path, capsys, key, value):
        spec = tmp_path / "s.cfg"
        spec.write_text(f"n_ids = 2\n{key} = {value}\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert f"{key} must be >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_spec_key_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text("n_ids = 2\nnoise = 1.0\nnoise = 2.0\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert f"{spec}:3: key 'noise' repeats line 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_misspelt_spec_key_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text("n_ids = 2\nilum_jitter = 0.4\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert "ilum_jitter" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestExtract:
    def test_descriptor_contents(self, descriptors):
        # 24 images; two views x two spaces x ten stripes x sixteen names
        assert load_descriptors(descriptors).matrix.shape == (24, 640)

    def test_rerun_bitwise_identical(self, corpus, descriptors, tmp_path):
        again = tmp_path / "again.sgmd"
        code = main([
            "extract", str(corpus / "manifest.csv"), "--out", str(again),
            "--spaces", "RGB,HSV",
        ])
        assert code == 0
        assert again.read_bytes() == descriptors.read_bytes()

    def test_threads_do_not_change_output(self, corpus, descriptors, tmp_path):
        threaded = tmp_path / "threaded.sgmd"
        code = main([
            "extract", str(corpus / "manifest.csv"), "--out", str(threaded),
            "--spaces", "RGB,HSV", "--threads", "4",
        ])
        assert code == 0
        assert threaded.read_bytes() == descriptors.read_bytes()

    def test_missing_image_exits_2_and_names_path(self, corpus, tmp_path, capsys):
        manifest = tmp_path / "broken.csv"
        manifest.write_text(
            "person_id,camera,image_path,mask_path\n"
            "p0,A,missing_file.ppm,\n"
            "p0,B,also_missing.ppm,\n"
        )
        out, csv_out = tmp_path / "d.sgmd", tmp_path / "d.csv"
        out.write_bytes(b"stale")
        csv_out.write_text("stale")
        assert main(["extract", str(manifest), "--out", str(out), "--csv", str(csv_out)]) == 2
        err = capsys.readouterr().err
        assert "missing_file.ppm" in err
        assert "error: 2 file(s) failed to load" in err
        assert not out.exists() and not csv_out.exists()

    def test_empty_manifest_exits_2_and_names_it(self, tmp_path, capsys):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("person_id,camera,image_path,mask_path\n")
        out = tmp_path / "d.sgmd"
        assert main(["extract", str(manifest), "--out", str(out)]) == 2
        assert f"{manifest}: manifest lists no images" in capsys.readouterr().err
        assert not out.exists()

    def test_two_image_manifest_full_dim(self, corpus, tmp_path):
        manifest = load_manifest(corpus / "manifest.csv")
        small = tmp_path / "two.csv"
        rows = [e for e in manifest.entries if e.person_id == "id00"]
        with open(small, "w") as fh:
            fh.write("person_id,camera,image_path,mask_path\n")
            for e in rows:
                fh.write(f"{e.person_id},{e.camera},{manifest.locate(e.image_path)},"
                         f"{manifest.locate(e.mask_path)}\n")
        out = tmp_path / "two.sgmd"
        assert main(["extract", str(small), "--out", str(out)]) == 0
        assert load_descriptors(out).matrix.shape == (2, 1280)

    def test_threaded_verbose_lines_are_whole_and_in_manifest_order(
        self, corpus, tmp_path, capsys
    ):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so prints would interleave
        try:
            code = main([
                "extract", str(corpus / "manifest.csv"), "--out", str(tmp_path / "v.sgmd"),
                "--spaces", "RGB,HSV", "--threads", "2", "--verbose",
            ])
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()[:-1]  # the last line is the summary
        paths = [e.image_path for e in load_manifest(corpus / "manifest.csv").entries]
        assert len(lines) == len(paths)
        for line, path in zip(lines, paths):
            assert re.fullmatch(re.escape(path) + r": dim=640 [0-9]+\.[0-9] ms", line), line

    def test_threads_env_var_is_honored(self, corpus, descriptors, tmp_path, monkeypatch):
        monkeypatch.setenv("REID_SGM_THREADS", "3")
        out = tmp_path / "env.sgmd"
        code = main([
            "extract", str(corpus / "manifest.csv"), "--out", str(out),
            "--spaces", "RGB,HSV",
        ])
        assert code == 0
        assert out.read_bytes() == descriptors.read_bytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_decoded_images_alive_at_once(self, corpus, tmp_path, monkeypatch, threads):
        # Keyed by load number: a RasterImage holds an array, so it has no hash.
        live, alive = weakref.WeakValueDictionary(), []
        load = imaging.load_image

        def tracked(path):
            image = load(path)
            live[len(alive)] = image
            alive.append(len(live))
            return image

        monkeypatch.setattr(imaging, "load_image", tracked)
        assert main(["extract", str(corpus / "manifest.csv"), "--out", str(tmp_path / "s.sgmd"),
                     "--spaces", "RGB", "--threads", str(threads)]) == 0
        assert len(alive) == 24 and max(alive) <= threads + 1

    @pytest.mark.parametrize("flags", [["--threads", "1"], ["--threads", "2"]])
    def test_unreadable_images_are_all_named_and_end_extraction(
        self, corpus, tmp_path, capsys, monkeypatch, flags
    ):
        listed = load_manifest(corpus / "manifest.csv")
        garbage = tmp_path / "garbage.ppm"
        garbage.write_bytes(b"not an image")
        bad = {5: str(garbage), 9: str(tmp_path / "missing.ppm")}
        manifest = tmp_path / "bad.csv"
        with open(manifest, "w") as fh:
            fh.write("person_id,camera,image_path,mask_path\n")
            for i, e in enumerate(listed.entries):
                image = bad.get(i, listed.locate(e.image_path))
                fh.write(f"{e.person_id},{e.camera},{image},{listed.locate(e.mask_path)}\n")
        events = []
        load, extract = imaging.load_image, descriptor.extract_features

        def logged_load(path):
            try:
                return load(path)
            except Exception:
                events.append("failed")
                raise

        def logged_extract(*args, **kwargs):
            events.append("extract")
            return extract(*args, **kwargs)

        monkeypatch.setattr(imaging, "load_image", logged_load)
        monkeypatch.setattr(descriptor, "extract_features", logged_extract)
        out, csv_out = tmp_path / "bad.sgmd", tmp_path / "bad_desc.csv"
        out.write_bytes(b"stale")
        csv_out.write_text("stale")
        assert main(["extract", str(manifest), "--out", str(out), "--csv", str(csv_out),
                     "--spaces", "RGB", *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == ["error"] * 3
        assert err[0].startswith(f"error: {garbage}: ") and str(tmp_path / "missing.ppm") in err[1]
        assert err[2] == "error: 2 file(s) failed to load"
        assert events.count("failed") == 2 and not out.exists() and not csv_out.exists()
        if flags != ["--threads", "2"]:  # a worker may be extracting as the other one fails
            assert "extract" not in events[events.index("failed"):]

    def test_config_file_supplies_defaults(self, corpus, tmp_path):
        cfg = tmp_path / "cli.cfg"
        cfg.write_text("spaces = RGB\nk = 3\n")
        out = tmp_path / "cfg.sgmd"
        assert main(["extract", str(corpus / "manifest.csv"), "--out", str(out),
                     "--config", str(cfg)]) == 0
        assert load_descriptors(out).matrix.shape[1] == 320  # one space, two views
        # command line wins over the file
        out2 = tmp_path / "cfg2.sgmd"
        assert main(["extract", str(corpus / "manifest.csv"), "--out", str(out2),
                     "--config", str(cfg), "--spaces", "RGB,HSV"]) == 0
        assert load_descriptors(out2).matrix.shape[1] == 640

    def test_repeated_config_key_is_usage_error(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("k = 3\n# comment\nspaces = RGB\nk = 4\n")
        out = tmp_path / "twice.sgmd"
        assert main(["extract", str(corpus / "manifest.csv"), "--out", str(out),
                     "--config", str(cfg)]) == 1
        assert f"{cfg}:4: key 'k' repeats line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_misspelt_config_key_is_usage_error(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("kk = 3\n")
        out = tmp_path / "typo.sgmd"
        assert main(["extract", str(corpus / "manifest.csv"), "--out", str(out),
                     "--config", str(cfg)]) == 1
        assert "kk" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--global-fit", "--no-global-fit"])
    def test_global_fit_flag_is_gone(self, corpus, tmp_path, capsys, flag):
        # Each image's Gaussians are fitted on its own pixels; no corpus-wide fit is left.
        out = tmp_path / "global.sgmd"
        with pytest.raises(SystemExit) as info:
            main(["extract", str(corpus / "manifest.csv"), "--out", str(out), flag])
        assert info.value.code == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == [f"reid-sgm: error: unrecognized arguments: {flag}"]
        assert not out.exists()

    def test_global_fit_config_key_is_gone(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "global.cfg"
        cfg.write_text("global_fit = true\n")
        out = tmp_path / "global.sgmd"
        assert main(["extract", str(corpus / "manifest.csv"), "--out", str(out),
                     "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}: unknown config key(s) global_fit"]
        assert not out.exists()

    def test_config_shared_across_subcommands(self, corpus, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("spaces = RGB\nk = 3\nr = 7\nseed = 9\n")
        desc = tmp_path / "shared.sgmd"
        out = tmp_path / "shared.cclm"
        assert main(["extract", str(corpus / "manifest.csv"), "--out", str(desc),
                     "--config", str(cfg)]) == 0
        assert main(["train", str(desc), str(corpus / "manifest.csv"), "--out", str(out),
                     "--config", str(cfg)]) == 0
        assert load_models(out)["SGM"].rank == 7


    @pytest.mark.parametrize("key, value, repeat", [
        ("features", "SGM,CH,SGM", "SGM"),
        ("spaces", "RGB,RGB", "RGB"),
    ])
    def test_repeated_kind_or_space_is_usage_error(self, corpus, tmp_path, capsys, key, value,
                                                   repeat):
        # Each would extract a duplicated block; from a flag or a config file alike.
        cfg = tmp_path / "repeat.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "repeat.sgmd"
        for extra in ([f"--{key}", value], ["--config", str(cfg)]):
            assert main(["extract", str(corpus / "manifest.csv"), "--out", str(out), *extra]) == 1
            assert f"{key}: {repeat!r} is repeated" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_epsilon0_is_usage_error(self, corpus, tmp_path, capsys, value):
        out = tmp_path / "eps.sgmd"
        code = main(["extract", str(corpus / "manifest.csv"), "--out", str(out),
                     "--epsilon0", value])
        assert code == 1
        assert f"epsilon0 must be positive and finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("features", ["SGM", "CH"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_epsilon0_rejected_before_loading(self, tmp_path, capsys, value, features):
        # The manifest does not exist, so the value is checked before anything
        # is read; CH fits no model and rejects it all the same.
        code = main(["extract", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "e.sgmd"),
                     "--epsilon0", value, "--features", features])
        assert code == 1
        err = capsys.readouterr().err
        assert f"epsilon0 must be positive and finite, got {float(value)}" in err


class TestByteOrderMark:
    """A text input saved with a UTF-8 byte-order mark, as spreadsheet tools
    often save it, reads as the same file without one."""

    BOM = "\ufeff"

    @pytest.fixture(scope="class")
    def small(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bom") / "corpus"
        synth_dataset(SynthSpec(n_ids=2, width=18, height=48, seed=5), root)
        return root

    def extract(self, manifest, out, *flags):
        assert main(["extract", str(manifest), "--out", str(out), "--spaces", "RGB", *flags]) == 0
        return out.read_bytes()

    def test_manifest(self, small, tmp_path):
        marked = small / "marked.csv"  # beside the images its paths name
        marked.write_text(self.BOM + (small / "manifest.csv").read_text(), encoding="utf-8")
        assert (self.extract(marked, tmp_path / "marked.sgmd")
                == self.extract(small / "manifest.csv", tmp_path / "plain.sgmd"))

    def test_config_file(self, small, tmp_path):
        cfg = tmp_path / "marked.cfg"
        cfg.write_text(self.BOM + "k = 3\n", encoding="utf-8")
        manifest = small / "manifest.csv"
        assert (self.extract(manifest, tmp_path / "marked.sgmd", "--config", str(cfg))
                == self.extract(manifest, tmp_path / "plain.sgmd", "--k", "3"))

    def test_synth_spec(self, small, tmp_path):
        spec = tmp_path / "marked.cfg"
        spec.write_text(self.BOM + "n_ids = 2\nwidth = 18\nheight = 48\nseed = 5\n",
                        encoding="utf-8")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "corpus")]) == 0
        name = "images/id1_camB_0.ppm"
        assert (tmp_path / "corpus" / name).read_bytes() == (small / name).read_bytes()

    def test_palette(self, small, tmp_path):
        shipped = resources.files("reid_sgm").joinpath("data/colornames16.txt").read_text()
        palette = tmp_path / "marked.txt"
        palette.write_text(self.BOM + "# exported from a spreadsheet\n" + shipped,
                           encoding="utf-8")
        manifest = small / "manifest.csv"
        assert (self.extract(manifest, tmp_path / "marked.sgmd", "--palette", str(palette))
                == self.extract(manifest, tmp_path / "plain.sgmd"))


class TestNonFinitePalette:
    """A palette entry with a NaN component is refused where the palette is
    read, and the refusal names the entry."""

    @pytest.fixture
    def palette_path(self, tmp_path):
        palette = default_palette()
        lines = [f"{label} {r!r} {g!r} {b!r}"
                 for label, (r, g, b) in zip(palette.labels, palette.names.tolist())]
        lines[3] = f"{palette.labels[3]} nan 0 0"
        path = tmp_path / "nan.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("flags", [[], ["--euclidean"]], ids=["fitted", "euclidean"])
    def test_extract_exits_1_naming_the_entry(self, corpus, tmp_path, capsys, palette_path,
                                               flags):
        out = tmp_path / "d.sgmd"
        assert main(["extract", str(corpus / "manifest.csv"), "--out", str(out),
                     "--palette", str(palette_path), *flags]) == 1
        err = capsys.readouterr().err
        assert f"palette entry 3 ({default_palette().labels[3]})" in err
        assert not out.exists()

    def test_inspect_exits_2(self, capsys, palette_path):
        assert main(["inspect", str(palette_path)]) == 2
        assert "unrecognized artifact" in capsys.readouterr().err


class TestBadImageFiles:
    """An image file the reader refuses ends in exit 2, naming the file."""

    @pytest.mark.parametrize("name", BAD_IMAGE_FILES)
    def test_extract_exits_2(self, tmp_path, capsys, name):
        for image in ("a.ppm", "b.ppm"):
            (tmp_path / image).write_bytes(BAD_IMAGE_FILES[name][0])
        manifest = tmp_path / "m.csv"
        manifest.write_text("person_id,camera,image_path,mask_path\n"
                            "p0,A,a.ppm,\np0,B,b.ppm,\n")
        assert main(["extract", str(manifest), "--out", str(tmp_path / "d.sgmd")]) == 2
        err = capsys.readouterr().err
        assert "a.ppm: " in err and "b.ppm: " in err and "Traceback" not in err

    def test_inspect_refuses_png(self, tmp_path, capsys):
        path = tmp_path / "img.png"
        path.write_bytes(BAD_IMAGE_FILES["png"][0])
        assert main(["inspect", str(path)]) == 2
        assert "unrecognized artifact" in capsys.readouterr().err


class TestTrain:
    def test_model_contents(self, model):
        models = load_models(model)
        assert list(models) == ["SGM"]
        assert models["SGM"].rank == 20
        assert models["SGM"].dim == 640

    def test_retrain_bitwise_identical(self, corpus, descriptors, model, tmp_path):
        again = tmp_path / "again.cclm"
        code = main([
            "train", str(descriptors), str(corpus / "manifest.csv"),
            "--out", str(again), "--r", "20", "--fraction", "0.5", "--seed", "9",
        ])
        assert code == 0
        assert again.read_bytes() == model.read_bytes()

    def test_r_clamped_with_warning(self, corpus, descriptors, tmp_path, capsys):
        out = tmp_path / "clamped.cclm"
        code = main([
            "train", str(descriptors), str(corpus / "manifest.csv"),
            "--out", str(out), "--r", "5000", "--seed", "9",
        ])
        assert code == 0
        assert "clamped" in capsys.readouterr().err
        assert load_models(out)["SGM"].rank == 640

    def test_negative_split_index_is_usage_error(self, corpus, descriptors, tmp_path, capsys):
        code = main([
            "train", str(descriptors), str(corpus / "manifest.csv"),
            "--out", str(tmp_path / "neg.cclm"), "--split-index", "-1",
        ])
        assert code == 1
        assert "split index" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_ridge_is_usage_error(self, corpus, descriptors, tmp_path, capsys, value):
        out = tmp_path / "ridge.cclm"
        code = main([
            "train", str(descriptors), str(corpus / "manifest.csv"),
            "--out", str(out), "--ridge", value,
        ])
        assert code == 1
        assert f"ridge must be nonnegative and finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_no_ridge_on_a_singular_full_problem_exits_3(self, tmp_path, capsys):
        # 12 training pairs of 16-dim rows: 2n >= d, so the full problem.
        # Centered color-name histograms leave sigma_m + sigma_e singular.
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_ids = 24\nheight = 24\nwidth = 12\nnoise = 20\nseed = 3\n")
        corpus = tmp_path / "corpus"
        desc, out = tmp_path / "d.sgmd", tmp_path / "m.cclm"
        assert main(["synth", "--spec", str(spec), "--out", str(corpus)]) == 0
        assert main(["extract", str(corpus / "manifest.csv"), "--out", str(desc),
                     "--spaces", "RGB", "--stripes", "1", "--no-mask"]) == 0
        assert load_descriptors(desc).matrix.shape[1] == 16
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", str(desc), str(corpus / "manifest.csv"), "--out", str(out),
                         "--ridge", "0", "--r", "5"])
        out_text, err = capsys.readouterr()
        assert code == 3 and out_text == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_zero_r_is_usage_error(self, corpus, descriptors, tmp_path, capsys):
        code = main([
            "train", str(descriptors), str(corpus / "manifest.csv"),
            "--out", str(tmp_path / "r0.cclm"), "--r", "0",
        ])
        assert code == 1
        assert "r must be >= 1" in capsys.readouterr().err

    def test_moved_corpus_trains_and_evaluates_alike(self, corpus, tmp_path):
        # Rows are keyed by the manifest's own paths: copies of one corpus in
        # two directories extract to the same bytes, and a moved corpus keeps
        # its rows, so train and eval on it reproduce the model and the report.
        before, after = tmp_path / "before", tmp_path / "after"
        copy = tmp_path / "elsewhere" / "copy"
        shutil.copytree(corpus, before)
        shutil.copytree(corpus, copy)
        desc, again = tmp_path / "d.sgmd", tmp_path / "again.sgmd"
        assert main(["extract", str(before / "manifest.csv"), "--out", str(desc)]) == 0
        assert main(["extract", str(copy / "manifest.csv"), "--out", str(again)]) == 0
        assert again.read_bytes() == desc.read_bytes()
        assert load_descriptors(desc).source_ids[:2] == ("images/id00_camA_0.ppm",
                                                          "images/id00_camB_0.ppm")
        runs = []
        for root in (before, after):
            if root == after:
                shutil.move(before, after)
            mdl, report = tmp_path / f"{root.name}.cclm", tmp_path / f"{root.name}.csv"
            assert main(["train", str(desc), str(root / "manifest.csv"), "--out", str(mdl),
                         "--r", "5"]) == 0
            assert main(["eval", str(desc), str(mdl), str(root / "manifest.csv"),
                         "--splits", "2", "--out", str(report)]) == 0
            runs.append((mdl.read_bytes(), report.read_text()))
        assert runs[0] == runs[1]


class TestEval:
    def test_csv_header_matches_requested_ranks(self, corpus, descriptors, model, capsys):
        code = main([
            "eval", str(descriptors), str(model), str(corpus / "manifest.csv"),
            "--splits", "2", "--seed", "9",
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "1,5,10,20"
        rates = [float(v) for v in lines[1].split(",")]
        assert all(0.0 <= v <= 1.0 for v in rates)
        assert rates == sorted(rates)

    def test_report_file(self, corpus, descriptors, model, tmp_path):
        out = tmp_path / "report.csv"
        code = main([
            "eval", str(descriptors), str(model), str(corpus / "manifest.csv"),
            "--splits", "1", "--seed", "9", "--ranks", "1,2", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines()[0] == "1,2"

    @pytest.mark.parametrize("flag, value, message", [
        ("--splits", "0", "--splits must be >= 1, got 0"),
        ("--ranks", "1,0,5", "--ranks must be >= 1, got 0"),
        ("--ranks", "-3", "--ranks must be >= 1, got -3"),
    ])
    def test_bad_splits_or_ranks_rejected_before_loading(self, tmp_path, capsys, flag, value,
                                                         message):
        # None of the three inputs exists: the flag is checked before any is read.
        missing = [str(tmp_path / name) for name in ("d.sgmd", "m.cclm", "manifest.csv")]
        assert main(["eval", *missing, flag, value]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_single_split_matches_library_call(self, corpus, descriptors, model, capsys):
        import reid_sgm as rs

        code = main([
            "eval", str(descriptors), str(model), str(corpus / "manifest.csv"),
            "--splits", "1", "--seed", "9", "--ranks", "1",
        ])
        assert code == 0
        cli_rate = capsys.readouterr().out.strip().splitlines()[1]

        manifest = load_manifest(corpus / "manifest.csv")
        reps = load_descriptors(descriptors)
        mdl = load_models(model)["SGM"]
        split = rs.make_splits(manifest, 0.5, 1, 9)[0]
        probes, gallery = [], []
        for pid in split.test_ids:
            a = manifest.rows(camera="A", ids=[pid])[0]
            b = manifest.rows(camera="B", ids=[pid])[0]
            ra, rb = reps.rows([a.image_path, b.image_path])
            probes.append(rs.project(mdl, reps.matrix[ra].astype(np.float64), "A"))
            gallery.append(rs.project(mdl, reps.matrix[rb].astype(np.float64), "B"))
        scores = rs.score_matrix(mdl, np.vstack(gallery), np.vstack(probes))
        curve = rs.cmc_single_shot(scores, split.test_ids, split.test_ids)
        # the CSV prints rates with six decimals
        assert cli_rate == "%.6f" % curve[0]

    def test_probe_camera_flip(self, corpus, descriptors, model, capsys):
        rates = {}
        for camera in ("A", "B"):
            code = main([
                "eval", str(descriptors), str(model), str(corpus / "manifest.csv"),
                "--splits", "1", "--seed", "9", "--ranks", "1,5",
                "--probe-camera", camera,
            ])
            assert code == 0
            lines = capsys.readouterr().out.strip().splitlines()
            rates[camera] = [float(v) for v in lines[1].split(",")]
        for vals in rates.values():
            assert 0.0 <= vals[0] <= vals[1] <= 1.0

    def test_dimension_mismatch_named(self, corpus, descriptors, model, tmp_path, capsys):
        other = tmp_path / "narrow.sgmd"
        assert main([
            "extract", str(corpus / "manifest.csv"), "--out", str(other),
            "--spaces", "RGB",
        ]) == 0
        code = main([
            "eval", str(other), str(model), str(corpus / "manifest.csv"),
            "--splits", "1", "--seed", "9",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "640" in err and "320" in err


class TestMalformedDescriptors:
    """Each defect ends in exit 2 from the reader, never a traceback or a report."""

    @staticmethod
    def rewrite(descriptors, tmp_path, count=None, values=None, source_ids=None, layout=None):
        head, payload, footer = split_artifact(descriptors.read_bytes())
        _, rows, dim = struct.unpack("<HII", head[4:14])
        matrix = np.frombuffer(payload, dtype="<f4").reshape(rows, dim)
        if count is not None:
            matrix = matrix[:count]
            footer["source_ids"] = footer["source_ids"][:count]
        if values is not None:
            matrix = values(matrix.copy())
        if source_ids is not None:
            footer["source_ids"] = source_ids(footer["source_ids"])
        if layout is not None:
            footer["layout"] = layout(footer["layout"])
        footer["arrays"]["matrix"][1] = list(matrix.shape)
        path = tmp_path / "bad.sgmd"
        path.write_bytes(join_artifact(head[:6] + struct.pack("<II", *matrix.shape),
                                       np.ascontiguousarray(matrix, dtype="<f4").tobytes(), footer))
        return path

    def test_zero_rows(self, corpus, descriptors, model, tmp_path, capsys):
        path = self.rewrite(descriptors, tmp_path, count=0)
        code = main([
            "eval", str(path), str(model), str(corpus / "manifest.csv"), "--splits", "1",
        ])
        assert code == 2
        assert "no rows" in capsys.readouterr().err

    def test_nan_row(self, corpus, descriptors, model, tmp_path, capsys):
        def poison(matrix):
            matrix[3, 7] = np.nan
            return matrix

        path = self.rewrite(descriptors, tmp_path, values=poison)
        code = main([
            "eval", str(path), str(model), str(corpus / "manifest.csv"), "--splits", "1",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "array 'matrix' holds a non-finite value at (3, 7)" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "footer, message",
        [
            (b"[]", "not a JSON object"),
            (b'{"layout": [], "source_ids": 5}', "must be lists"),
            (
                b'{"layout": [{"kind": "SGM", "space": null, "view": "whole", "stripe": "x",'
                b' "length": 640}], "source_ids": []}',
                "malformed layout footer",
            ),
            (
                b'{"layout": [{"kind": "SGM", "space": "RGB", "view": "whole", "stripe": 0,'
                b' "length": 650}, {"kind": "CH", "space": "RGB", "view": "whole", "stripe": 0,'
                b' "length": -10}], "source_ids": []}',
                "CH record has length -10",
            ),
        ],
    )
    def test_inspect_malformed_footer(self, descriptors, tmp_path, capsys, footer, message):
        # An object's fields replace the file's own; anything else replaces the footer.
        head, payload, intact = split_artifact(descriptors.read_bytes())
        edited = json.loads(footer)
        path = tmp_path / "bad.sgmd"
        path.write_bytes(join_artifact(head, payload, {**intact, **edited}
                                       if isinstance(edited, dict) else edited))
        assert main(["inspect", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_duplicate_source_ids(self, corpus, descriptors, model, tmp_path, capsys):
        path = self.rewrite(
            descriptors, tmp_path, source_ids=lambda ids: [ids[0]] + ids[1:-1] + [ids[0]]
        )
        code = main([
            "eval", str(path), str(model), str(corpus / "manifest.csv"), "--splits", "1",
        ])
        assert code == 2
        assert "repeats a source id" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("kind", 5, "unknown feature kind 5"),
        ("kind", "X" * 20, f"unknown feature kind {'X' * 20!r}"),
        ("view", 1, "SGM record has a non-string view or space"),
        ("space", ["RGB"], "SGM record has a non-string view or space"),
    ])
    def test_layout_field_of_wrong_type(self, corpus, descriptors, tmp_path, capsys, field,
                                        value, message):
        # Rejected at load: train fits nothing and writes no model.
        def edit(layout):
            layout[0][field] = value
            return layout

        path = self.rewrite(descriptors, tmp_path, layout=edit)
        out = tmp_path / "m.cclm"
        code = main(["train", str(path), str(corpus / "manifest.csv"), "--out", str(out),
                     "--r", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"malformed layout footer: {message}" in captured.err
        assert captured.out == "" and not out.exists()

    def test_version_1_asks_to_re_extract(self, corpus, descriptors, model, tmp_path, capsys):
        # Version 1 keyed rows by absolute paths and recorded no provenance.
        path = tmp_path / "old.sgmd"
        path.write_bytes(b"SGMD" + struct.pack("<HII", 1, 1, 2) + bytes(8)
                         + b'{"layout": [], "source_ids": ["/corpus/images/a.ppm"]}')
        for argv in (["inspect", str(path)],
                     ["eval", str(path), str(model), str(corpus / "manifest.csv")]):
            assert main(argv) == 2
            assert capsys.readouterr() == (
                "", f"error: {path}: unsupported version 1; re-extract the descriptors\n")


class TestMalformedModels:
    """Each ``.cclm`` defect ends in exit 2 from the reader (``CorruptFile``)."""

    @staticmethod
    def poke(model, path, name, value, ridge_term=None):
        """Write ``model`` to ``path`` with the first entry of array ``name``
        set to ``value`` and, if given, SGM's recorded ridge term replaced."""
        head, payload, footer = split_artifact(model.read_bytes())
        at = array_offset(footer, name)
        payload = payload[:at] + struct.pack("<d", value) + payload[at + 8 :]
        if ridge_term is not None:
            footer["provenance"]["models"]["SGM"]["ridge_term"] = ridge_term
        path.write_bytes(join_artifact(head, payload, footer))

    @staticmethod
    def run_eval(corpus, descriptors, path, capsys):
        code = main([
            "eval", str(descriptors), str(path), str(corpus / "manifest.csv"), "--splits", "1",
        ])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    def test_non_utf8_kind(self, corpus, descriptors, model, tmp_path, capsys):
        data = model.read_bytes()
        at = data.rindex(b'"SGM"')  # the kind's key in the footer's model table
        path = tmp_path / "bad.cclm"
        path.write_bytes(data[: at + 1] + b"\xff" + data[at + 2 :])
        assert main(["inspect", str(path)]) == 2
        assert "footer is not UTF-8 JSON" in capsys.readouterr().err
        code, err = self.run_eval(corpus, descriptors, path, capsys)
        assert code == 2 and "footer is not UTF-8 JSON" in err

    def test_trailing_bytes(self, corpus, descriptors, model, tmp_path, capsys):
        # A byte after the footer's JSON, with the length counting it, and a
        # byte after the whole file.
        head, payload, footer = split_artifact(model.read_bytes())
        path = tmp_path / "bad.cclm"
        path.write_bytes(join_artifact(head, payload, json.dumps(footer).encode() + b"\x00"))
        code, err = self.run_eval(corpus, descriptors, path, capsys)
        assert code == 2 and "footer is not UTF-8 JSON: Extra data" in err
        path.write_bytes(model.read_bytes() + b"\x00")
        code, err = self.run_eval(corpus, descriptors, path, capsys)
        assert code == 2 and err.startswith(f"error: {path}: ")

    def test_nan_weight(self, corpus, descriptors, model, tmp_path, capsys):
        path = tmp_path / "bad.cclm"
        self.poke(model, path, "SGM/w", np.nan)
        code, err = self.run_eval(corpus, descriptors, path, capsys)
        assert code == 2 and "non-finite" in err

    def test_non_positive_variance(self, corpus, descriptors, model, tmp_path, capsys):
        path = tmp_path / "bad.cclm"
        self.poke(model, path, "SGM/b", 0.0)
        code, err = self.run_eval(corpus, descriptors, path, capsys)
        assert code == 2 and f"{path}: model 'SGM' holds a variance that is not positive" in err

    @pytest.mark.parametrize("var", ["a", "b"])
    def test_variance_whose_reciprocal_overflows(self, corpus, descriptors, model, tmp_path,
                                                 capsys, var):
        # With a recorded ridge term of 0, nothing but the reciprocal rejects it.
        path = tmp_path / "bad.cclm"
        self.poke(model, path, f"SGM/{var}", 1e-310, ridge_term=0.0)
        line = f"error: {path}: model 'SGM' holds a variance whose reciprocal overflows\n"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["inspect", str(path)]) == 2
            assert capsys.readouterr() == ("", line)
            assert self.run_eval(corpus, descriptors, path, capsys) == (2, line)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_variance_below_the_ridge_term(self, corpus, descriptors, model, tmp_path, capsys):
        # A first b of 1e-300 is positive and its reciprocal finite, and before
        # the ridge term was recorded it loaded, and eval reported a rank-1 far
        # below the intact model's.  Training adds the ridge term to every b.
        path = tmp_path / "bad.cclm"
        self.poke(model, path, "SGM/b", 1e-300)
        ridge = load_models(model)["SGM"].ridge_term
        line = f"error: {path}: model 'SGM' holds a variance below its ridge term {ridge!r}\n"
        assert main(["inspect", str(path)]) == 2
        assert capsys.readouterr() == ("", line)
        assert self.run_eval(corpus, descriptors, path, capsys) == (2, line)

    @pytest.mark.parametrize("command", ["inspect", "score", "eval"])
    def test_no_model(self, corpus, descriptors, model, tmp_path, capsys, command):
        # A model table of no kind, which ``save_models`` never writes.
        head, payload, footer = split_artifact(model.read_bytes())
        footer["provenance"]["models"] = {}
        path = tmp_path / "empty.cclm"
        path.write_bytes(join_artifact(head, payload, footer))
        line = f"error: {path}: holds no model\n"
        if command == "eval":
            assert self.run_eval(corpus, descriptors, path, capsys) == (2, line)
            return
        argv = ["inspect", str(path)]
        if command == "score":
            manifest = load_manifest(corpus / "manifest.csv")
            a, b = (manifest.rows(camera=cam, ids=["id00"])[0] for cam in "AB")
            argv = ["score", str(descriptors), str(path),
                    "--probe", a.image_path, "--gallery", b.image_path]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", line)

    def test_version_1(self, corpus, descriptors, model, tmp_path, capsys):
        data = model.read_bytes()
        path = tmp_path / "old.cclm"
        path.write_bytes(data[:4] + struct.pack("<H", 1) + data[6:])
        code, err = self.run_eval(corpus, descriptors, path, capsys)
        assert code == 2 and "unsupported version 1; retrain the model" in err

    def test_version_2(self, corpus, descriptors, model, tmp_path, capsys):
        # Version 2: a model count, then per model a padded kind tag, d, r and
        # the float64 arrays, with no provenance.
        path = tmp_path / "old.cclm"
        path.write_bytes(b"CCLM" + struct.pack("<HH", 2, 1) + b"SGM".ljust(16)
                         + struct.pack("<II", 1, 1) + struct.pack("<5d", 0, 0, 1, 1, 1))
        code, err = self.run_eval(corpus, descriptors, path, capsys)
        assert (code, err) == (2, f"error: {path}: unsupported version 2; retrain the model\n")
        assert main(["inspect", str(path)]) == 2
        assert "unsupported version 2; retrain the model" in capsys.readouterr().err

    def test_repeated_kind(self, corpus, descriptors, model, tmp_path, capsys):
        # The model's arrays twice, under a table that lists them once.
        head, payload, footer = split_artifact(model.read_bytes())
        path = tmp_path / "bad.cclm"
        path.write_bytes(join_artifact(head, payload + payload, footer))
        code, err = self.run_eval(corpus, descriptors, path, capsys)
        assert code == 2 and f"{len(payload)} bytes lie between the arrays and the footer" in err


class TestFeatureFusion:
    def test_three_kind_workflow(self, corpus, tmp_path, capsys):
        desc = tmp_path / "fused.sgmd"
        code = main([
            "extract", str(corpus / "manifest.csv"), "--out", str(desc),
            "--features", "SGM,CH,SILTP", "--spaces", "RGB,HSV",
        ])
        assert code == 0
        capsys.readouterr()
        assert load_descriptors(desc).matrix.shape[1] == 640 + 1920 + 1620

        mdl = tmp_path / "fused.cclm"
        code = main([
            "train", str(desc), str(corpus / "manifest.csv"),
            "--out", str(mdl), "--r", "12", "--seed", "9",
        ])
        assert code == 0
        kind_lines = capsys.readouterr().out.splitlines()[:3]
        for kind, line in zip(("SGM", "CH", "SILTP"), kind_lines):
            assert line.startswith(f"{kind}: ") and " pairs=6 " in line
        models = load_models(mdl)
        assert list(models) == ["SGM", "CH", "SILTP"]
        assert {m.rank for m in models.values()} == {12}

        code = main([
            "eval", str(desc), str(mdl), str(corpus / "manifest.csv"),
            "--splits", "2", "--seed", "9", "--ranks", "1,5",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "1,5"
        rates = [float(v) for v in lines[1].split(",")]
        assert 0.0 <= rates[0] <= rates[1] <= 1.0

    def test_single_model_over_fused_vector(self, corpus, tmp_path, capsys):
        desc = tmp_path / "fused.sgmd"
        assert main([
            "extract", str(corpus / "manifest.csv"), "--out", str(desc),
            "--features", "SGM,CH", "--spaces", "RGB",
        ]) == 0
        mdl = tmp_path / "joint.cclm"
        assert main([
            "train", str(desc), str(corpus / "manifest.csv"),
            "--out", str(mdl), "--r", "8", "--seed", "9", "--no-per-feature",
        ]) == 0
        models = load_models(mdl)
        assert list(models) == ["ALL"]
        assert models["ALL"].dim == load_descriptors(desc).matrix.shape[1]


class TestMasklessManifests:
    def test_manifest_without_masks(self, corpus, tmp_path):
        manifest = load_manifest(corpus / "manifest.csv")
        stripped = tmp_path / "nomask.csv"
        with open(stripped, "w") as fh:
            fh.write("person_id,camera,image_path,mask_path\n")
            for e in manifest.entries:
                fh.write(f"{e.person_id},{e.camera},{manifest.locate(e.image_path)},\n")
        out = tmp_path / "nomask.sgmd"
        assert main(["extract", str(stripped), "--out", str(out)]) == 0
        assert load_descriptors(out).matrix.shape[1] == 640

    def test_partial_masks_rejected_before_any_extraction(self, corpus, tmp_path, capsys,
                                                          monkeypatch):
        listed = load_manifest(corpus / "manifest.csv")
        entries = [replace(e, image_path=listed.locate(e.image_path),
                           mask_path=listed.locate(e.mask_path)) for e in listed.entries]
        partial = tmp_path / "partial.csv"
        with open(partial, "w") as fh:
            fh.write("person_id,camera,image_path,mask_path\n")
            for i, e in enumerate(entries):
                mask = "" if i == 3 else e.mask_path
                fh.write(f"{e.person_id},{e.camera},{e.image_path},{mask}\n")
        out, csv_out = tmp_path / "partial.sgmd", tmp_path / "partial_desc.csv"
        out.write_bytes(b"stale")
        csv_out.write_text("stale")
        calls = []
        monkeypatch.setattr(cli.descriptor, "extract_features",
                            lambda *args, **kwargs: calls.append(args))
        assert main(["extract", str(partial), "--out", str(out), "--csv", str(csv_out)]) == 2
        err = capsys.readouterr().err
        assert f"{entries[-1].image_path} has a mask but {entries[3].image_path} has none" in err
        assert calls == [] and not out.exists() and not csv_out.exists()

    def test_repeated_image_rejected_before_any_loading(self, corpus, tmp_path, capsys,
                                                        monkeypatch):
        listed = load_manifest(corpus / "manifest.csv")
        entries = [replace(e, image_path=listed.locate(e.image_path),
                           mask_path=listed.locate(e.mask_path)) for e in listed.entries]
        repeated = tmp_path / "repeated.csv"
        with open(repeated, "w") as fh:
            fh.write("person_id,camera,image_path,mask_path\n")
            for e in (*entries, entries[2]):
                fh.write(f"{e.person_id},{e.camera},{e.image_path},{e.mask_path or ''}\n")
        # images/x.ppm, ./images/x.ppm and the absolute path, relative to the
        # manifest's directory, name one image.
        shutil.copytree(corpus, tmp_path / "copy")
        lines = (corpus / "manifest.csv").read_text().splitlines()
        respelled = {}
        absolute = f"{tmp_path / 'copy'}/images/"
        for name, spelling in (("dot", "./images/"), ("absolute", absolute)):
            respelled[name] = tmp_path / "copy" / f"{name}.csv"
            extra = lines[3].replace(",images/", f",{spelling}", 1)
            respelled[name].write_text("\n".join([*lines, extra]) + "\n")
        out, csv_out = tmp_path / "repeated.sgmd", tmp_path / "repeated_desc.csv"
        calls = []
        monkeypatch.setattr(cli.imaging, "load_image", lambda *args: calls.append(args))
        for manifest, image in ((repeated, entries[2].image_path),
                                (respelled["dot"], listed.entries[2].image_path),
                                (respelled["absolute"], f"{absolute}id01_camA_0.ppm")):
            out.write_bytes(b"stale")
            csv_out.write_text("stale")
            assert main(["extract", str(manifest), "--out", str(out), "--csv", str(csv_out)]) == 2
            err = capsys.readouterr().err
            assert f"{manifest}: data rows 3 and {len(entries) + 1} both list {image}" in err
            assert calls == [] and not out.exists() and not csv_out.exists()

    def test_no_mask_flag_drops_foreground_view(self, corpus, tmp_path):
        out = tmp_path / "flag.sgmd"
        assert main([
            "extract", str(corpus / "manifest.csv"), "--out", str(out), "--no-mask",
        ]) == 0
        assert load_descriptors(out).matrix.shape[1] == 640


class TestMultiShot:
    def test_multi_image_corpus_workflow(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(
            "n_ids = 8\nimages_per_view = 2\nview_gain = 0.3\nnoise = 20\nseed = 63\n"
        )
        corpus = tmp_path / "corpus"
        assert main(["synth", "--spec", str(spec), "--out", str(corpus)]) == 0
        desc = tmp_path / "d.sgmd"
        assert main([
            "extract", str(corpus / "manifest.csv"), "--out", str(desc),
            "--spaces", "RGB",
        ]) == 0
        assert load_descriptors(desc).matrix.shape[0] == 32
        mdl = tmp_path / "m.cclm"
        assert main([
            "train", str(desc), str(corpus / "manifest.csv"),
            "--out", str(mdl), "--r", "10", "--seed", "3",
        ]) == 0
        capsys.readouterr()
        assert main([
            "eval", str(desc), str(mdl), str(corpus / "manifest.csv"),
            "--splits", "2", "--seed", "3", "--protocol", "multi", "--ranks", "1,2",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rates = [float(v) for v in lines[1].split(",")]
        assert 0.0 <= rates[0] <= rates[1] <= 1.0

    def test_eval_matches_per_split_projection_oracle(self, tmp_path, capsys):
        # eval projects each tested row once per model and gathers per split;
        # the report must equal projecting every split's rows on their own
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_ids = 12\nimages_per_view = 2\nview_gain = 0.3\nnoise = 20\nseed = 65\n")
        corpus = tmp_path / "corpus"
        assert main(["synth", "--spec", str(spec), "--out", str(corpus)]) == 0
        manifest_path = corpus / "manifest.csv"
        desc, mdl, out = tmp_path / "d.sgmd", tmp_path / "m.cclm", tmp_path / "r.csv"
        assert main(["extract", str(manifest_path), "--out", str(desc), "--spaces", "RGB,HSV",
                     "--features", "SGM,CH"]) == 0
        assert main(["train", str(desc), str(manifest_path), "--out", str(mdl), "--r", "12",
                     "--seed", "3"]) == 0
        assert main(["eval", str(desc), str(mdl), str(manifest_path), "--splits", "3",
                     "--seed", "4", "--probe-camera", "B", "--protocol", "multi",
                     "--ranks", "1,2,3,6", "--out", str(out)]) == 0
        manifest = load_manifest(manifest_path)
        models = load_models(mdl)
        assert list(models) == ["SGM", "CH"]
        expected = per_split_eval_csv(
            load_descriptors(desc), models, manifest, make_splits(manifest, 0.5, 3, 4),
            "B", "multi", (1, 2, 3, 6),
        )
        assert out.read_text() == expected

    def test_single_protocol_rejects_duplicates(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_ids = 6\nimages_per_view = 2\nseed = 64\n")
        corpus = tmp_path / "corpus"
        assert main(["synth", "--spec", str(spec), "--out", str(corpus)]) == 0
        desc = tmp_path / "d.sgmd"
        assert main([
            "extract", str(corpus / "manifest.csv"), "--out", str(desc),
            "--spaces", "RGB",
        ]) == 0
        mdl = tmp_path / "m.cclm"
        assert main([
            "train", str(desc), str(corpus / "manifest.csv"),
            "--out", str(mdl), "--r", "6", "--seed", "3",
        ]) == 0
        code = main([
            "eval", str(desc), str(mdl), str(corpus / "manifest.csv"),
            "--splits", "1", "--seed", "3", "--protocol", "single",
        ])
        assert code == 2
        assert "single-shot" in capsys.readouterr().err


class TestScoreCommand:
    def test_score_prints_value(self, corpus, descriptors, model, capsys):
        manifest = load_manifest(corpus / "manifest.csv")
        a = manifest.rows(camera="A", ids=["id00"])[0]
        b = manifest.rows(camera="B", ids=["id00"])[0]
        code = main([
            "score", str(descriptors), str(model),
            "--probe", a.image_path, "--gallery", b.image_path,
        ])
        assert code == 0
        float(capsys.readouterr().out.strip())  # parses as a number

    def test_score_is_the_entry_eval_ranks(self, tmp_path, capsys, monkeypatch):
        # 80 identities: eval projects 64 or more tested rows per camera, so
        # each row rounds as in any block of 64 rows, which is how score
        # projects its two.  A one-row projection may round differently.
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_ids = 80\nheight = 36\nwidth = 12\nview_gain = 0.3\nnoise = 20\n"
                        "seed = 8\n")
        corpus, desc, mdl = tmp_path / "corpus", tmp_path / "d.sgmd", tmp_path / "m.cclm"
        manifest_path = str(corpus / "manifest.csv")
        assert main(["synth", "--spec", str(spec), "--out", str(corpus)]) == 0
        assert main(["extract", manifest_path, "--out", str(desc), "--spaces", "RGB,HSV",
                     "--features", "SGM,CH"]) == 0
        assert main(["train", str(desc), manifest_path, "--out", str(mdl), "--r", "12"]) == 0
        ranked, cmc = [], cli.evalkit.cmc_single_shot

        def recorded(scores, probe_ids, gallery_ids):
            ranked.append((scores, probe_ids, gallery_ids))
            return cmc(scores, probe_ids, gallery_ids)

        monkeypatch.setattr(cli.evalkit, "cmc_single_shot", recorded)
        assert main(["eval", str(desc), str(mdl), manifest_path, "--splits", "4",
                     "--probe-camera", "B"]) == 0
        capsys.readouterr()
        manifest, reps = load_manifest(manifest_path), load_descriptors(desc)
        models = load_models(mdl)
        ids = {(e.person_id, e.camera): e.image_path for e in manifest.entries}
        for scores, probe_ids, gallery_ids in ranked[::3]:
            for i in range(0, len(probe_ids), 7):
                for j, gallery_id in enumerate(gallery_ids):
                    probe, gallery = reps.rows([ids[probe_ids[i], "B"], ids[gallery_id, "A"]])
                    got = cli._pair_score(models, reps, probe, gallery, "B")
                    assert got == scores[i, j], (probe_ids[i], gallery_id)
        assert main(["score", str(desc), str(mdl), "--probe", ids[probe_ids[0], "B"],
                     "--gallery", ids[gallery_ids[0], "A"], "--probe-camera", "B"]) == 0
        assert capsys.readouterr().out == "%.9g\n" % scores[0, 0]

    def test_unknown_source_id(self, descriptors, model, capsys):
        code = main([
            "score", str(descriptors), str(model),
            "--probe", "nope.ppm", "--gallery", "also-nope.ppm",
        ])
        assert code == 2


class TestConfigFile:
    """Every option a ``--config`` file sets takes effect as its flag would."""

    # A non-default value for every option that is not a switch.
    RAW = {
        "seed": "7", "threads": "3", "out": "cfg.out", "csv": "cfg.csv",
        "features": "CH,SILTP", "k": "3", "stripes": "4", "spaces": "RGB,HSV",
        "epsilon0": "0.5", "palette": "cfg.txt", "r": "7", "ridge": "0.25",
        "fraction": "0.3", "split_index": "2", "splits": "4", "protocol": "multi",
        "ranks": "2,3", "probe_camera": "B", "probe": "cfg.ppm", "gallery": "cfg2.ppm",
        "spec": "cfg.spec",
    }

    def test_every_option_reaches_the_parsed_arguments(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REID_SGM_THREADS", raising=False)
        commands = _commands(build_parser())
        actions = {a.dest: a for p in commands.values() for a in _options(p)}
        # A switch is set to the opposite of its default.
        values = {dest: ("no" if a.default else "yes") if a.nargs == 0 else self.RAW[dest]
                  for dest, a in actions.items()}
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{key} = {raw}\n" for key, raw in values.items()))
        for name, sub in commands.items():
            argv = [name] + ["pos"] * sum(not a.option_strings for a in sub._actions)
            for action in _options(sub):
                if action.required:
                    argv += [action.option_strings[0], "cli-value"]
            plain = parse_args(argv)
            args = parse_args(argv + ["--config", str(cfg)])
            for action in _options(sub):
                dest, raw = action.dest, values[action.dest]
                got = getattr(args, dest)
                if action.required:  # always on the command line, which wins
                    assert got == "cli-value", (name, dest)
                    continue
                if action.nargs == 0:
                    want = not action.default
                else:
                    want = action.type(raw) if action.type else raw
                assert got == want != getattr(plain, dest), (name, dest)

    def test_defaults_come_from_the_library(self):
        args = parse_args(["extract", "m.csv", "--out", "d.sgmd"])
        assert _extraction_config(args) == ExtractionConfig()
        assert args.palette is None
        args = parse_args(["train", "d.sgmd", "m.csv", "--out", "m.cclm"])
        assert args.r == ccl.DEFAULT_SUBSPACE_DIM
        assert args.ridge == ccl.DEFAULT_RIDGE

    def test_extract_csv_and_verbose(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "x.cfg"
        cfg.write_text(f"csv = {tmp_path / 'x.csv'}\nverbose = true\nspaces = RGB\n")
        assert main(["extract", str(corpus / "manifest.csv"), "--out", str(tmp_path / "x.sgmd"),
                     "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 25 and all(": dim=320 " in line for line in lines[:-1])
        assert len((tmp_path / "x.csv").read_text().splitlines()) == 25

    def test_eval_out(self, corpus, descriptors, model, tmp_path, capsys):
        report = tmp_path / "report.csv"
        cfg = tmp_path / "e.cfg"
        cfg.write_text(f"out = {report}\nsplits = 1\n")
        assert main(["eval", str(descriptors), str(model), str(corpus / "manifest.csv"),
                     "--config", str(cfg)]) == 0
        assert f"report -> {report}" in capsys.readouterr().out
        assert report.read_text().splitlines()[0] == "1,5,10,20"

    def test_score_probe_camera(self, corpus, descriptors, model, tmp_path, capsys):
        manifest = load_manifest(corpus / "manifest.csv")
        a = manifest.rows(camera="A", ids=["id00"])[0].image_path
        b = manifest.rows(camera="B", ids=["id00"])[0].image_path
        argv = ["score", str(descriptors), str(model), "--probe", b, "--gallery", a]
        outputs = []
        cfg = tmp_path / "s.cfg"
        cfg.write_text("probe_camera = B\n")
        for extra in ([], ["--probe-camera", "B"], ["--config", str(cfg)]):
            assert main(argv + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[2] != outputs[0]

    @pytest.mark.parametrize("line, key", [
        ("protocol = triple", "protocol"),
        ("probe_camera = C", "probe_camera"),
        ("splits = two", "splits"),
        ("verbose = maybe", "verbose"),
    ])
    def test_bad_value_is_usage_error(self, corpus, descriptors, model, tmp_path, capsys,
                                      line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        if key == "verbose":  # only extract takes --verbose
            argv = ["extract", str(corpus / "manifest.csv"), "--out", str(tmp_path / "v.sgmd")]
        else:
            argv = ["eval", str(descriptors), str(model), str(corpus / "manifest.csv")]
        assert main(argv + ["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert f"{cfg}: {key}: " in captured.err and captured.out == ""

    def test_bad_threads_env_is_usage_error(self, corpus, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REID_SGM_THREADS", "many")
        with pytest.raises(SystemExit) as info:
            main(["extract", str(corpus / "manifest.csv"), "--out", str(tmp_path / "t.sgmd")])
        assert info.value.code == 1
        assert "--threads" in capsys.readouterr().err
        monkeypatch.setenv("REID_SGM_THREADS", "0")
        assert main(["extract", str(corpus / "manifest.csv"),
                     "--out", str(tmp_path / "t.sgmd")]) == 1
        assert "thread count must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "t.sgmd").exists()

    def test_bad_threads_env_leaves_train_alone(self, corpus, descriptors, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REID_SGM_THREADS", "many")
        out = tmp_path / "m.cclm"
        assert main(["train", str(descriptors), str(corpus / "manifest.csv"),
                     "--out", str(out), "--r", "5"]) == 0
        assert out.exists()

    def test_one_file_sets_seed_threads_and_verbose(self, corpus, tmp_path, capsys):
        """The file's keys take effect in the subcommands that have them, as flags would."""
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("seed = 5\nthreads = 2\nverbose = true\nspaces = RGB\nr = 6\n"
                       "splits = 2\n")
        manifest = str(corpus / "manifest.csv")
        runs = {}
        for tag, extract, train, evaluate in [
            ("file", ["--config", str(cfg)], ["--config", str(cfg)], ["--config", str(cfg)]),
            ("flags", ["--threads", "2", "--verbose", "--spaces", "RGB"],
             ["--seed", "5", "--r", "6"], ["--seed", "5", "--splits", "2"]),
        ]:
            desc, mdl = tmp_path / f"{tag}.sgmd", tmp_path / f"{tag}.cclm"
            assert main(["extract", manifest, "--out", str(desc), *extract]) == 0
            assert main(["train", str(desc), manifest, "--out", str(mdl), *train]) == 0
            assert main(["eval", str(desc), str(mdl), manifest, *evaluate]) == 0
            out = capsys.readouterr().out.replace(str(tmp_path / tag), "OUT")
            out = re.sub(r"[0-9.]+ ms", "ms", out)
            runs[tag] = (desc.read_bytes(), mdl.read_bytes(), out)
        assert runs["file"] == runs["flags"]
        assert runs["file"][2].count(": dim=320 ms") == 24  # one verbose line per image


class TestInspect:
    def test_descriptor_file(self, descriptors, capsys):
        assert main(["inspect", str(descriptors)]) == 0
        out = capsys.readouterr().out
        assert "24 rows" in out and "dim 640" in out

    def test_model_file(self, model, capsys):
        assert main(["inspect", str(model)]) == 0
        out = capsys.readouterr().out
        assert "SGM" in out and "r=20" in out

    @pytest.mark.parametrize("r", [3, 6])
    def test_spectrum_shows_five_eigenvalues_then_an_ellipsis(
            self, corpus, descriptors, tmp_path, capsys, r):
        path = tmp_path / "m.cclm"
        assert main(["train", str(descriptors), str(corpus / "manifest.csv"),
                     "--out", str(path), "--r", str(r)]) == 0
        trained = capsys.readouterr().out
        assert main(["inspect", str(path)]) == 0
        inspected = capsys.readouterr().out
        shown = [re.search(r"eigenvalues \[(.*)\]", out).group(1).split(", ")
                 for out in (trained, inspected)]
        assert shown[0] == shown[1]
        assert len(shown[0]) == min(r, 5) + (r > 5)
        assert (shown[0][-1] == "...") == (r > 5)

    def test_manifest(self, corpus, capsys):
        assert main(["inspect", str(corpus / "manifest.csv")]) == 0
        assert "12 identities" in capsys.readouterr().out

    def test_garbage(self, tmp_path, capsys):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\x01\x02garbage")
        assert main(["inspect", str(path)]) == 2

    def test_mask(self, corpus, capsys):
        manifest = load_manifest(corpus / "manifest.csv")
        assert main(["inspect", manifest.locate(manifest.entries[0].mask_path)]) == 0
        spec = SynthSpec()
        assert capsys.readouterr().out == f"mask (P5): {spec.width}x{spec.height}\n"

    @pytest.mark.parametrize("data, message", [
        (b"P5 garbage", "truncated header"),
        (b"P5\n4 3\n255\n" + bytes(11), "payload holds 11 bytes, expected 12"),
    ])
    def test_damaged_mask_is_corrupt(self, tmp_path, capsys, data, message):
        path = tmp_path / "m.pgm"
        path.write_bytes(data)
        with pytest.raises(CorruptFile, match=message):
            _read_pnm(data, b"P5", 1)
        assert main(["inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("row, message", [
        ("p1", "short.csv:2: row lacks camera, image_path"),
        ("p1,C,a.ppm,", "camera must be A or B, got 'C'"),
    ])
    def test_bad_manifest_row_keeps_its_message(self, tmp_path, capsys, row, message):
        path = tmp_path / "short.csv"
        path.write_text(f"person_id,camera,image_path,mask_path\n{row}\n")
        assert main(["inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "unrecognized artifact" not in err

    def test_palette(self, tmp_path, capsys):
        path = tmp_path / "palette.txt"
        path.write_text(resources.files("reid_sgm").joinpath("data/colornames16.txt").read_text())
        assert main(["inspect", str(path)]) == 0
        assert capsys.readouterr().out == f"palette: {', '.join(default_palette().labels)}\n"


class TestExitCodes:
    def test_usage_error_is_1(self):
        with pytest.raises(SystemExit) as info:
            main(["extract"])  # missing required arguments
        assert info.value.code == 1

    def test_unknown_command_is_1(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_data_error_is_2(self, tmp_path):
        assert main(["inspect", str(tmp_path / "does_not_exist")]) == 2

    @pytest.mark.parametrize("row, missing", [
        ("p0", "camera, image_path"),
        ("p0,A", "image_path"),
        (",A,a.ppm", "person_id"),
    ])
    @pytest.mark.parametrize("command", ["extract", "train"])
    def test_incomplete_manifest_row_is_2(self, descriptors, tmp_path, capsys, command, row,
                                          missing):
        manifest = tmp_path / "short.csv"
        manifest.write_text(f"person_id,camera,image_path,mask_path\np0,B,b.ppm,\n{row}\n")
        inputs = [str(descriptors)] if command == "train" else []
        assert main([command, *inputs, str(manifest), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}:3: row lacks {missing}" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [("extract", "--seed")] + [
        (command, flag) for command in ("train", "eval", "synth")
        for flag in ("--threads", "--verbose")
    ] + [
        (command, flag) for command in ("score", "inspect")
        for flag in ("--seed", "--threads", "--verbose")
    ])
    def test_flag_of_another_subcommand_is_1(self, capsys, command, flag):
        sub = _commands(build_parser())[command]
        argv = [command] + ["pos"] * sum(not a.option_strings for a in sub._actions)
        for action in _options(sub):
            if action.required:
                argv += [action.option_strings[0], "x"]
        given = [flag] if flag == "--verbose" else [flag, "3"]
        with pytest.raises(SystemExit) as info:
            main(argv + given)
        assert info.value.code == 1
        assert f"unrecognized arguments: {' '.join(given)}" in capsys.readouterr().err


def test_every_subcommand_reads_each_of_its_arguments():
    """A flag that no code of its subcommand reads would be accepted and ignored.

    A subcommand reads ``args.<dest>`` in its function or in a ``cli`` function
    it passes ``args`` to; ``parse_args`` reads ``config``.
    """
    tree = ast.parse(Path(cli.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(name, param="args"):
        found = set()
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == param:
                found.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in defs and node.func.id != name:
                params = [a.arg for a in defs[node.func.id].args.args]
                for arg, callee_param in zip(node.args, params):
                    if isinstance(arg, ast.Name) and arg.id == param:
                        found |= reads(node.func.id, callee_param)
        return found

    assert "config" in reads("parse_args")
    for command, sub in _commands(build_parser()).items():
        dests = {a.dest for a in sub._actions if a.dest not in ("help", "config")}
        unread = dests - reads(sub.get_default("func").__name__)
        assert not unread, (command, sorted(unread))


def source_env():
    """The environment with the package's ``src`` first on ``PYTHONPATH``."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                                     os.environ.get("PYTHONPATH")])))


def test_importing_the_cli_loads_no_thread_pool():
    # Only extract with --threads > 1 runs a pool; no other command pays for its import.
    code = "import sys\nimport reid_sgm.cli\nprint('concurrent.futures' in sys.modules)\n"
    result = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout == "False\n"


def test_importing_the_cli_loads_no_scipy(corpus, descriptors, model, tmp_path):
    # No stage needs scipy: importing the CLI, training on a reduced problem
    # (2n < d) and solving a dense one (2n >= d) load none of it.
    env = source_env()
    out = tmp_path / "m.cclm"
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from reid_sgm import ccl, cli\n"
        "def loaded():\n"
        "    print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "loaded()\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "loaded()\n"
        "rng = np.random.default_rng(5)\n"
        "xs, ys = rng.normal(size=(8, 2, 10)).transpose(1, 0, 2)\n"
        "dense = ccl.solve_subspace(ccl.accumulate_stats(xs, ys), 3)\n"
        "print(dense.w.shape, np.isfinite(dense.w).all())\n"
        "loaded()\n"
    )
    args = ["train", str(descriptors), str(corpus / "manifest.csv"), "--out", str(out),
            "--r", "20", "--fraction", "0.5", "--seed", "9"]
    result = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    lines = result.stdout.strip().splitlines()
    dim, pairs = map(int, re.search(r"d=(\d+) r=20 pairs=(\d+)", result.stdout).groups())
    assert 2 * pairs < dim  # the reduced branch
    assert lines[0] == lines[-3] == lines[-1] == "[]"
    assert lines[-2] == "(10, 3) True"
    assert out.read_bytes() == model.read_bytes()
