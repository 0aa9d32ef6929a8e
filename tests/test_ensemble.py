"""Ensemble type, algebra, and file-format tests."""

import dataclasses

import numpy as np
import pytest

from conftest import dense_lambda, hermitian_ensemble, identity_ensemble, raw_haar_ensemble
from qtpe.ensemble import (
    UnitaryEnsemble,
    check_product_degree,
    hermitian_double,
    involution_defect,
    load,
    read_sidecar,
    sample_random_qtpe,
    save,
    square_compose,
    tensor_ensemble,
    validate,
)
from qtpe.errors import EnsembleFormatError, PreconditionError, SizeLimitError
from qtpe.linalg import SeededRng


class TestValidate:
    def test_identity_passes(self):
        report = validate(identity_ensemble(2), tol=1e-12)
        assert report.passed
        assert report.unitarity_defect == 0.0

    def test_perturbed_identity_fails(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] += 1e-3
        e = UnitaryEnsemble(2, m[None], None, "perturbed")
        report = validate(e, tol=1e-10)
        assert not report.passed
        # two Gram entries shift by 1e-3, so the Frobenius defect is ~sqrt(2)*1e-3
        assert report.unitarity_defect == pytest.approx(np.sqrt(2) * 1e-3, rel=1e-2)

    @pytest.mark.parametrize("seed", range(20))
    def test_sampled_ensembles_pass(self, seed):
        e = sample_random_qtpe(4, 6, SeededRng(seed))
        assert validate(e, tol=1e-10 * e.dim).passed

    def test_broken_involution_reported(self):
        e = identity_ensemble(2, copies=2)
        bad = UnitaryEnsemble(2, e.unitaries, (1, 0), "ok-structure")
        assert validate(bad).passed  # identity members are self-adjoint
        worse = UnitaryEnsemble(2, e.unitaries, (0, 0), "non-bijective")
        assert not validate(worse).passed

    def test_involution_defect_kept_per_ensemble(self):
        e = sample_random_qtpe(3, 4, SeededRng(2))
        assert involution_defect(e) == validate(e).involution_defect <= 1e-14
        swapped = dataclasses.replace(e, involution=(1, 0, 3, 2))  # U_1 != U_0†
        assert involution_defect(swapped) > 1.0
        assert involution_defect(e) <= 1e-14
        assert involution_defect(dataclasses.replace(swapped, involution=None)) == np.inf


class TestSampler:
    def test_adjoint_pairing(self):
        e = sample_random_qtpe(2, 4, SeededRng(3))
        assert e.size == 4
        assert np.allclose(e.member(2), e.member(0).conj().T)
        assert np.allclose(e.member(3), e.member(1).conj().T)
        assert e.involution == (2, 3, 0, 1)

    def test_deterministic(self):
        a = sample_random_qtpe(3, 4, SeededRng(9))
        b = sample_random_qtpe(3, 4, SeededRng(9))
        assert np.array_equal(a.unitaries, b.unitaries)

    @pytest.mark.parametrize("s", [3, 5, 2, 0])
    def test_degree_guard(self, s):
        with pytest.raises(PreconditionError):
            sample_random_qtpe(2, s, SeededRng(0))


class TestHermitianDouble:
    def test_literal_duplication(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        e = UnitaryEnsemble(2, np.stack([np.eye(2, dtype=complex), x]), None, "ix")
        doubled = hermitian_double(e)
        assert doubled.size == 4
        assert np.allclose(doubled.member(2), np.eye(2))
        assert np.allclose(doubled.member(3), x)
        assert validate(doubled).passed

    def test_size_doubles(self):
        e = raw_haar_ensemble(3, 5, seed=1)
        assert hermitian_double(e).size == 2 * e.size

    @pytest.mark.parametrize("seed", range(5))
    def test_lambda_exact_on_hermitian_inputs(self, seed):
        e = hermitian_ensemble(4, 4, seed)
        assert dense_lambda(hermitian_double(e), 1) == pytest.approx(dense_lambda(e, 1), abs=1e-7)

    @pytest.mark.parametrize("t", [1, 2])
    def test_lambda_preserved_across_t(self, t):
        e = hermitian_ensemble(3, 4, seed=31)
        assert dense_lambda(hermitian_double(e), t) == pytest.approx(dense_lambda(e, t), abs=1e-7)

    @pytest.mark.parametrize("seed", range(5))
    def test_lambda_upper_bound_on_raw_inputs(self, seed):
        # doubling a non-Hermitian ensemble can only shrink the deviation norm
        e = raw_haar_ensemble(4, 3, seed)
        assert dense_lambda(hermitian_double(e), 1) <= dense_lambda(e, 1) + 1e-7


class TestSquareCompose:
    def test_identity_singleton(self):
        sq = square_compose(identity_ensemble(2))
        assert sq.size == 1
        assert np.allclose(sq.member(0), np.eye(2))

    def test_member_count_and_order(self):
        e = raw_haar_ensemble(2, 3, seed=5)
        sq = square_compose(e)
        assert sq.size == 9
        for i in range(3):
            for j in range(3):
                assert np.allclose(sq.member(3 * i + j), e.member(i) @ e.member(j))
        assert sq.involution is None

    @pytest.mark.parametrize("seed", range(5))
    def test_lambda_squares_on_hermitian_inputs(self, seed):
        e = hermitian_ensemble(4, 4, seed)
        assert dense_lambda(square_compose(e), 1) == pytest.approx(dense_lambda(e, 1) ** 2, abs=1e-7)

    @pytest.mark.parametrize("seed", range(3))
    def test_lambda_square_upper_bound_raw(self, seed):
        e = raw_haar_ensemble(4, 4, seed)
        assert dense_lambda(square_compose(e), 1) <= dense_lambda(e, 1) ** 2 + 1e-7

    def test_size_guard(self):
        e = raw_haar_ensemble(2, 65, seed=0)
        with pytest.raises(SizeLimitError):
            square_compose(e)


class TestTensorEnsemble:
    def test_identity(self):
        out = tensor_ensemble(identity_ensemble(2))
        assert out.dim == 4 and out.size == 1
        assert np.allclose(out.member(0), np.eye(4))

    def test_counts(self):
        e = raw_haar_ensemble(2, 2, seed=2)
        out = tensor_ensemble(e)
        assert out.size == 4 and out.dim == 4

    @pytest.mark.parametrize("seed", range(5))
    def test_lambda_preserved_t1(self, seed):
        e = raw_haar_ensemble(3, 4, seed)
        assert dense_lambda(tensor_ensemble(e), 1) == pytest.approx(dense_lambda(e, 1), abs=1e-7)

    def test_entry_guard_before_any_member(self, monkeypatch):
        import qtpe.ensemble as ens

        monkeypatch.setattr(ens, "kron", lambda *args: pytest.fail("a member was formed"))
        with pytest.raises(SizeLimitError, match="PRODUCT_ENTRY_LIMIT"):
            tensor_ensemble(raw_haar_ensemble(64, 4, seed=0))  # 16 members of 4096 x 4096: 4 GiB


def test_product_entry_guard():
    check_product_degree([16, 16], 512)  # 256 * 512^2 = 2^26 entries, at the guard
    with pytest.raises(SizeLimitError, match="PRODUCT_ENTRY_LIMIT"):
        check_product_degree([16, 16], 513)


class TestTracingOut:
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_lambda_monotone_in_t(self, d, seed):
        e = hermitian_ensemble(d, 4, seed)
        l1 = dense_lambda(e, 1)
        l2 = dense_lambda(e, 2)
        assert l1 <= l2 + 1e-7


class TestMomentHermiticity:
    @pytest.mark.parametrize("t", [1, 2])
    def test_selfadjoint_for_involution_ensembles(self, t):
        from qtpe.moments import MomentOperator

        e = sample_random_qtpe(3, 4, SeededRng(12))
        phi = MomentOperator(e, t)
        g = SeededRng(8).generator()
        nt = 3**t
        a = g.standard_normal((nt, nt)) + 1j * g.standard_normal((nt, nt))
        b = g.standard_normal((nt, nt)) + 1j * g.standard_normal((nt, nt))
        lhs = np.vdot(a.reshape(-1), phi.apply(b).reshape(-1))
        rhs = np.vdot(phi.apply(a).reshape(-1), b.reshape(-1))
        assert abs(lhs - rhs) <= 1e-9


class TestFileFormat:
    def test_roundtrip_identity(self, tmp_path):
        path = tmp_path / "i2.qtpe"
        save(identity_ensemble(2), path)
        back = load(path)
        assert back.dim == 2
        assert np.array_equal(back.unitaries, identity_ensemble(2).unitaries)
        assert back.involution == (0,)

    def test_roundtrip_sampled_bit_exact(self, tmp_path):
        e = sample_random_qtpe(4, 4, SeededRng(21), label="roundtrip")
        path = tmp_path / "e.qtpe"
        save(e, path, sidecar={"seed": 21})
        back = load(path)
        assert back.unitaries.tobytes() == e.unitaries.tobytes()  # all 128 floats
        assert back.involution == e.involution
        assert back.label == "roundtrip"

    def test_truncated_file_is_parse_error(self, tmp_path):
        e = sample_random_qtpe(2, 4, SeededRng(1))
        path = tmp_path / "e.qtpe"
        save(e, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(EnsembleFormatError) as info:
            load(path)
        assert "payload" in str(info.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.qtpe"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(EnsembleFormatError) as info:
            load(path)
        assert info.value.field == "magic"

    def test_bad_involution(self, tmp_path):
        e = sample_random_qtpe(2, 4, SeededRng(2))
        path = tmp_path / "e.qtpe"
        save(e, path)
        raw = bytearray(path.read_bytes())
        # involution entries start after magic+version+dim+count+flag = 14 bytes
        raw[14:18] = (0).to_bytes(4, "little")
        raw[22:26] = (0).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(EnsembleFormatError) as info:
            load(path)
        assert info.value.field == "involution"

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json", "\"label\"", "\udcff"])
    def test_malformed_sidecar_reads_as_empty(self, tmp_path, text):
        path = tmp_path / "e.qtpe"
        save(identity_ensemble(2), path, sidecar={"seed": 1})
        (tmp_path / "e.json").write_text(text, errors="surrogateescape")
        assert read_sidecar(path) == {}
        assert load(path).label == ""

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "e.qtpe"
        save(identity_ensemble(2), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(EnsembleFormatError):
            load(path)
