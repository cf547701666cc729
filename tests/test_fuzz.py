"""Seeded fuzzing of the three file parsers: PGM images (``ingest``),
model files (``model_from_bytes``) and INI configs (``parse_config``).

Every input, truncated, bit-flipped or well-formed but hostile, must end
in a ``ValueError`` or a correct result; the command line turns such an
input into exit code 2 and one ``error:`` line, never a traceback.
"""

import hashlib
import json
import math
import struct
import subprocess

import numpy as np
import pytest

from livecheck.config import parse_config
from livecheck.imageproc import MAX_PIXELS, as_image, ingest, write_pgm
from livecheck.model_io import model_bytes, model_from_bytes

from conftest import PERFBENCH, run_python
from test_model_io import _convnet_pipeline, _join, _lbp_pipeline, _split

CONFIGS = sorted((PERFBENCH / "configs").glob("*.ini"))


def _flip_bits(data: bytes, rng, max_flips: int = 8) -> bytes:
    out = bytearray(data)
    for _ in range(int(rng.integers(1, max_flips + 1))):
        out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
    return bytes(out)


def _signed(body: bytes) -> bytes:
    """A model body followed by its correct digest."""
    return body + hashlib.sha256(body).digest()


# ---------------------------------------------------------------------------
# PGM images

HOSTILE_PGM = [
    b"P5\n1099511627776 1099511627776\n255\n",  # 2^40 x 2^40 over a few bytes
    b"P5\n" + b"9" * 30 + b" 1\n255\n",
    b"P5\n4611686018427387904 4\n255\n",
    b"P5 0 5 255\n",
    b"P5 -1 1 255\n",
    b"P5 1 1 0\n",
    b"P5 1 1 256\n",
    b"P5 1 1 " + b"9" * 5000 + b"\n",
    b"P2 1099511627776 1099511627776 255 1 2 3",
    b"P2 1 1 255 +5",
    b"P2 1 1 255 " + b"9" * 30,  # a pixel past int64
    b"P2 2 1 255 7 \xff",
    b"P5",
    b"",
    b"P5\n4097 4097\n255\n" + bytes(4097 * 4097),  # a whole raster past MAX_PIXELS
]


def _pgm_bases(rng):
    img = rng.uniform(0.0, 1.0, size=(9, 7))
    plain = " ".join(str(int(v)) for v in np.round(img * 255.0).ravel())
    return [write_pgm(img), b"P2\n# comment\n7 9\n255\n" + plain.encode()]


def _check_image(data: bytes) -> None:
    try:
        img = ingest(data)
    except ValueError:
        return
    as_image(img)
    assert ingest(write_pgm(img)).tobytes() == img.tobytes()


class TestIngestFuzz:
    def test_mutated_streams(self):
        rng = np.random.default_rng(4101)
        bases = _pgm_bases(rng)
        inserts = np.frombuffer(b" \t\n#0123456789P25-+.e", dtype=np.uint8)
        for case in range(1500):
            base = bases[case % 2]
            kind = case % 4
            if kind == 0:
                data = base[: int(rng.integers(len(base) + 1))]
            elif kind == 1:
                data = _flip_bits(base, rng)
            elif kind == 2:
                noise = rng.integers(0, 256, size=int(rng.integers(0, 40)), dtype=np.uint8)
                data = HOSTILE_PGM[int(rng.integers(len(HOSTILE_PGM)))] + noise.tobytes()
            else:
                pos = int(rng.integers(len(base) + 1))
                data = base[:pos] + rng.choice(inserts, int(rng.integers(1, 6))).tobytes() + base[pos:]
            _check_image(data)

    @pytest.mark.parametrize("data", HOSTILE_PGM, ids=lambda data: "P5 4097x4097" if len(data) > MAX_PIXELS else None)
    def test_hostile_headers_rejected(self, data):
        with pytest.raises(ValueError):
            ingest(data)


# ---------------------------------------------------------------------------
# Model files


@pytest.fixture(scope="module", params=["lbp", "convnet"])
def trained(request):
    pipeline, images = _lbp_pipeline() if request.param == "lbp" else _convnet_pipeline()
    return pipeline, images[0]


def _check_model(data: bytes, probe) -> None:
    """Loading raises ``ValueError`` or gives a model that scores the
    probe image to a finite margin or raises ``ValueError``."""
    try:
        model = model_from_bytes(data)
    except ValueError:
        return
    try:
        score = model.decision_score(probe)
    except ValueError:
        return
    assert math.isfinite(score)


def _hostile_header(header: dict, rng) -> dict:
    """A copy of a stage header with one hostile value: an absurd array
    shape, shapes swapped between arrays, or a value of the wrong kind
    or magnitude."""
    header = json.loads(json.dumps(header))
    arrays = header.get("arrays") or []
    kind = int(rng.integers(3 if arrays else 1))
    if kind == 0:
        key = sorted(header)[int(rng.integers(len(header)))]
        values = [None, 10**400, -(10**400), float("nan"), float("inf"), "x", [], {"a": [[1]]}, 2**63, 0, -1, True]
        header[key] = values[int(rng.integers(len(values)))]
    elif kind == 1:
        spec = arrays[int(rng.integers(len(arrays)))]
        dims = [0, 1, 2, 3, 7, 2**31, 2**62, 2**63, 2**64, -1]
        spec["shape"] = [int(v) for v in rng.choice(dims, size=int(rng.integers(0, 5)))]
    else:
        # same element count, absurd rank or swapped shapes: the payload still fits
        spec = arrays[int(rng.integers(len(arrays)))]
        count = math.prod(spec["shape"])
        if rng.random() < 0.5:
            spec["shape"] = [1] * int(rng.integers(0, 40)) + [count]
        else:
            shapes = [a["shape"] for a in arrays]
            for a, shape in zip(arrays, shapes[1:] + shapes[:1]):
                a["shape"] = shape
    return header


def _deeply_nested_first_stage(blob: bytes) -> bytes:
    head = b'{"arrays":' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    block = struct.pack("<I", len(head)) + head
    (length,) = struct.unpack_from("<Q", blob, 6)
    rest = blob[6 + 8 + length : -32]
    return _signed(blob[:6] + struct.pack("<Q", len(block)) + block + rest)


class TestModelFuzz:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_mutated_files(self, trained):
        pipeline, probe = trained
        blob = model_bytes(pipeline)
        stages = _split(blob)
        rng = np.random.default_rng(4102)
        for case in range(300):
            kind = case % 4
            if kind == 0:
                data = blob[: int(rng.integers(len(blob)))]
            elif kind == 1:
                data = _flip_bits(blob, rng)
            elif kind == 2:  # flipped and signed again, so the checksum passes
                data = _signed(_flip_bits(blob[:-32], rng, max_flips=2))
            else:
                index = int(rng.integers(len(stages)))
                header, body = stages[index]
                data = _join(stages[:index] + [(_hostile_header(header, rng), body)] + stages[index + 1 :])
            _check_model(data, probe)

    def test_hostile_headers_rejected(self, trained):
        """Each of these once escaped as another exception."""
        pipeline, _ = trained
        blob = model_bytes(pipeline)
        stages = _split(blob)
        transform, transform_body = stages[3]
        classify, classify_body = stages[4]
        vector_svs = json.loads(json.dumps(classify))
        svs, coefs = vector_svs["arrays"]
        svs["shape"], coefs["shape"] = [math.prod(svs["shape"])], [coefs["shape"][0], 1]
        hostile = {
            "deeply nested header": _deeply_nested_first_stage(blob),
            "integer beyond float range": _join(
                stages[:3] + [({**transform, "epsilon": 10**400}, transform_body), stages[4]]
            ),
            "support vectors as one vector": _join(stages[:4] + [(vector_svs, classify_body)]),
        }
        for name, data in hostile.items():
            with pytest.raises(ValueError, match="corrupt model file"):
                model_from_bytes(data)


# ---------------------------------------------------------------------------
# Config files

HOSTILE_CONFIGS = [
    "[search]\nseed = 1\n[extract]\nmethod = convnet\nlayers = 4611686018427387904\nfilters = 16\n",
    "[search]\nseed = 1\n[extract]\nmethod = convnet\nlayers = 6\nfilters = 16\n",
    "[search]\nseed = 1e9\n",
    "[classify]\nc = 1e400\n[search]\nseed = 1\n",
    "[classify]\nc = nan\n[search]\nseed = 1\n",
    "[preprocess]\nclahe_tiles = 1x1x1\n[search]\nseed = 1\n",
    "[search]\nseed = 1\n[search]\nseed = 2\n",
    "[search]\nseed = 1\nseed = 2\n",
    "seed = 1\n",
    "[search\nseed = 1\n",
    "[DEFAULT]\nseed = 1\n",
]


def _check_config(text: str) -> None:
    try:
        parsed = parse_config(text)
    except ValueError:
        return
    assert parsed.seed >= 0
    assert parsed.grid_spec().size >= 1
    if not parsed.is_grid:
        parsed.single_config()


class TestConfigFuzz:
    def test_mutated_texts(self):
        rng = np.random.default_rng(4103)
        bases = [path.read_text(encoding="utf-8") for path in CONFIGS]
        alphabet = list("abcdefghijklmnopqrstuvwxyz_=|[]#:;,.x-+ \n\t0123456789eE%$\\\"'\x00")
        for case in range(1500):
            base = bases[case % len(bases)]
            kind = case % 4
            if kind == 0:
                text = base[: int(rng.integers(len(base) + 1))]
            elif kind == 1:
                chars = list(base)
                for _ in range(int(rng.integers(1, 5))):
                    chars[int(rng.integers(len(chars)))] = alphabet[int(rng.integers(len(alphabet)))]
                text = "".join(chars)
            elif kind == 2:
                text = HOSTILE_CONFIGS[int(rng.integers(len(HOSTILE_CONFIGS)))]
            else:
                pos = int(rng.integers(len(base) + 1))
                extra = "".join(alphabet[int(i)] for i in rng.integers(len(alphabet), size=int(rng.integers(1, 4))))
                text = base[:pos] + extra + base[pos:]
            _check_config(text)

    @pytest.mark.parametrize("text", HOSTILE_CONFIGS)
    def test_hostile_texts_rejected(self, text):
        with pytest.raises(ValueError):
            parse_config(text)


# ---------------------------------------------------------------------------
# Command line


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return run_python("-m", "livecheck.cli", *args, timeout=120)


def test_cli_reports_hostile_files_in_one_line(tmp_path):
    pipeline, images = _lbp_pipeline()
    blob = model_bytes(pipeline)
    image = tmp_path / "probe.pgm"
    image.write_bytes(write_pgm(images[0]))
    data = tmp_path / "data"
    for label in ("live", "fake"):
        (data / label).mkdir(parents=True)
        (data / label / "only.pgm").write_bytes(HOSTILE_PGM[0])
    (tmp_path / "good.lvck").write_bytes(blob)
    stages = _split(blob)
    transform, body = stages[3]
    values = np.frombuffer(body, dtype="<f8").copy()
    d = transform["arrays"][0]["shape"][0]
    values[d : 2 * d] = np.inf  # feature_stds, the second array
    models = {
        "truncated.lvck": blob[: len(blob) // 2],
        "nested.lvck": _deeply_nested_first_stage(blob),
        "infinite_epsilon.lvck": _join(stages[:3] + [({**transform, "epsilon": math.inf}, body)] + stages[4:]),
        "infinite_stds.lvck": _join(stages[:3] + [(transform, values.tobytes())] + stages[4:]),
    }
    overflow, oversized = tmp_path / "overflow.pgm", tmp_path / "oversized.pgm"
    overflow.write_bytes(b"P2 1 1 255 " + b"9" * 30)
    oversized.write_bytes(HOSTILE_PGM[-1])
    for hostile, reason in ((overflow, "pixel value exceeds maxval"),
                            (oversized, "4097x4097 image exceeds the 16777216-pixel limit")):
        result = _run_cli("predict", "--model", str(tmp_path / "good.lvck"), str(hostile))
        assert result.returncode == 1 and result.stdout == "", result.stderr
        assert result.stderr.splitlines() == [f"error: {hostile}: unsupported format: {reason}"]
    runs = []
    for name, content in models.items():
        (tmp_path / name).write_bytes(content)
        runs.append(_run_cli("predict", "--model", str(tmp_path / name), str(image)))
    config = tmp_path / "hostile.ini"
    config.write_text(HOSTILE_CONFIGS[0], encoding="utf-8")
    runs.append(_run_cli("train", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "m")))
    good = tmp_path / "good.ini"
    good.write_text("[search]\nseed = 1\n", encoding="utf-8")
    runs.append(_run_cli("train", "--config", str(good), "--data", str(data), "--out", str(tmp_path / "m")))
    for result in runs:
        errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert (result.returncode, len(errors)) == (2, 1), result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
