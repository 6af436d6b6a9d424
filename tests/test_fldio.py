"""FLD1 and MDL1 files: byte layout, round trips, malformed input rejection."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from specproj import fldio
from specproj.errors import ContractError, FieldFormatError


def test_zero_field_byte_layout(tmp_path):
    f = np.zeros((1, 4, 4))
    path = tmp_path / "z.fld"
    fldio.write_array(path, f)
    raw = path.read_bytes()
    # 8 header + 3 u64 dims + 16 f64 payload
    assert len(raw) == 8 + 8 + 2 * 8 + 128
    assert raw[:4] == b"FLD1"
    assert raw[4] == 0 and raw[5] == 3
    back = fldio.read_fld(path)
    assert back.shape == (1, 4, 4)
    assert np.array_equal(back, f)


def test_random_three_channel_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    f = rng.standard_normal((3, 6, 5))
    path = tmp_path / "r.fld"
    fldio.write_array(path, f)
    first = path.read_bytes()
    back = fldio.read_fld(path)
    fldio.write_array(path, back)
    assert path.read_bytes() == first


def test_one_point_axes_beside_a_larger_one(tmp_path):
    # a one-frame trajectory (C, 1, x, y) is a field; a grid of one point is not
    path = tmp_path / "one.fld"
    fldio.write_array(path, np.ones((2, 1, 4, 4)))
    assert fldio.read_fld(path).shape == (2, 1, 4, 4)
    fldio.write_array(path, np.ones((2, 1, 1)))
    with pytest.raises(ContractError, match="two or more points"):
        fldio.read_fld(path)


def test_non_finite_input_rejected(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        data = np.zeros((1, 8))
        data[0, 3] = bad
        path = tmp_path / "nan.fld"
        fldio.write_array(path, data)
        with pytest.raises(ContractError, match="non-finite") as err:
            fldio.read_fld(path)
        assert str(path) in str(err.value)


def test_field_shape_contract(tmp_path):
    # a channel axis, a grid axis of two or more points, no empty axis; each
    # error names the file, as do the format errors
    path = tmp_path / "f.fld"
    for shape, match in [((8,), "channel axis"), ((1, 0, 4), "no empty axis"),
                         ((0, 4), "no empty axis")]:
        fldio.write_array(path, np.zeros(shape))
        with pytest.raises(ContractError, match=match) as err:
            fldio.read_fld(path)
        assert str(path) in str(err.value)
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FieldFormatError, match="bad magic") as err:
        fldio.read_fld(path)
    assert str(path) in str(err.value)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.fld"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FieldFormatError):
        fldio.read_fld(path)


def test_bad_dtype_code(tmp_path):
    f = np.zeros((1, 4, 4))
    path = tmp_path / "d.fld"
    fldio.write_array(path, f)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError):
        fldio.read_fld(path)


def test_truncated_payload(tmp_path):
    f = np.ones((1, 4, 4))
    path = tmp_path / "t.fld"
    fldio.write_array(path, f)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FieldFormatError):
        fldio.read_fld(path)


def test_declared_length_mismatch():
    arr = np.ones((2, 3))
    buf = bytearray(fldio.pack_array(arr))
    buf += b"\x00" * 8  # extra trailing bytes
    with pytest.raises(FieldFormatError):
        fldio.unpack_array(bytes(buf))


def test_arbitrary_array_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    arr = rng.standard_normal((2, 3, 4, 5))
    path = tmp_path / "a.fld"
    fldio.write_array(path, arr)
    assert np.array_equal(fldio.read_array(path), arr)


# -- MDL1 model files ----------------------------------------------------------

_OUTPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "outputs.py"

_PCNO_HEADER = """MDL1
model_kind = fno
n_layers = 1
modes = 2,2
width = 3
in_channels = 2
cond_dim = 0
out_channels = 2
activation = gelu_tanh
fno_padding = -
selector = both
wspe_modes = 2,2
momentum_padding = 2,2
w_inv = 1.0,0.0,0.0
blocks = 14
"""

_PCNO_BLOCKS = ["head1_b", "head1_w", "head2_b", "head2_w", "lift_b", "lift_w",
                "momentum_free.re", "momentum_free.im", "pw_b_0", "pw_w_0",
                "spectral_0.re", "spectral_0.im", "w_spe.re", "w_spe.im"]

_DENOISER_HEADER = """MDL1
model_kind = denoiser
kind = residual
channels = 2
cond_channels = 4
modes = 2,2
hidden = 3
emb_dim = 2
t_min = 0.002
t_max = 80.0
rho = 7.0
sigma_data = 0.5
p_mean = -1.1
p_std = 2.0
activation = gelu_tanh
time_points = 80.0,24.4,5.84,0.9,0.661
pcno = pcno.mdl
blocks = 11
"""

_DENOISER_BLOCKS = ["b1", "b2", "b3", "pw_t_b", "pw_t_w", "pw_w", "w1", "w2", "w3",
                    "norm_min", "norm_max"]


def _bench_mdl_blocks():
    """The benchmark's own MDL1 reader, written against the documented format."""
    spec = importlib.util.spec_from_file_location("perfbench_outputs", _OUTPUTS)
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    return outputs.mdl_blocks


def _header_and_block_names(raw: bytes) -> tuple[str, list[str]]:
    end = raw.index(b"\n", raw.index(b"\nblocks = ") + 1) + 1
    header, pos, names = raw[:end].decode(), end, []
    while pos < len(raw):
        line_end = raw.index(b"\n", pos)
        name, size = raw[pos:line_end].decode().rsplit(" ", 1)
        names.append(name)
        pos = line_end + 1 + int(size)
    return header, names


def _stored(arrays: dict, names: list[str]) -> list[np.ndarray]:
    """The real arrays the named blocks hold."""
    parts = {".re": np.real, ".im": np.imag}
    return [parts[n[-3:]](arrays[n[:-3]]) if n[-3:] in parts else arrays[n] for n in names]


def test_mdl1_files_match_the_documented_format(tmp_path):
    from specproj.consistency import (DenoiserBundle, DenoiserHyper, RangeNormalizer,
                                      ToyDenoiser, save_denoiser)
    from specproj.rng import substream
    from specproj.surrogate import FnoHyper, init_params, save_model

    hyper = FnoHyper(n_layers=1, modes=(2, 2), width=3, in_channels=2, out_channels=2,
                     selector="both", wspe_modes=(2, 2), momentum_padding=(2, 2))
    params = init_params(hyper, (4, 4), substream(11, "fmt"))
    save_model(tmp_path / "pcno.mdl", params)
    den = ToyDenoiser.init(DenoiserHyper(channels=2, cond_channels=4, modes=(2, 2),
                                         hidden=3, emb_dim=2), substream(12, "fmt"))
    norm = RangeNormalizer.fit(np.random.default_rng(13).standard_normal((5, 2, 4, 4)))
    save_denoiser(tmp_path / "den.mdl", DenoiserBundle(den, norm), extra={"pcno": "pcno.mdl"})
    saved = {**den.arrays, "norm_min": norm.r_min, "norm_max": norm.r_max}

    mdl_blocks = _bench_mdl_blocks()
    for name, header, names, arrays in (
        ("pcno.mdl", _PCNO_HEADER, _PCNO_BLOCKS, params.arrays),
        ("den.mdl", _DENOISER_HEADER, _DENOISER_BLOCKS, saved),
    ):
        raw = (tmp_path / name).read_bytes()
        assert _header_and_block_names(raw) == (header, names)
        got = mdl_blocks(raw)
        want = _stored(arrays, names)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == np.shape(w) and np.array_equal(g, w)

