"""Ensemble type, algebra, and file-format tests."""

import dataclasses
import hashlib
import itertools
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import dense_lambda, hermitian_ensemble, identity_ensemble, pauli_ensemble, raw_haar_ensemble
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

    @pytest.mark.parametrize(
        "dim,size",
        [
            (16, 1100),  # chunks of 512, 512 and 76
            (16, 512),  # exactly one chunk
            (16, 1024),  # two full chunks, no partial one
            (16, 514),  # a full chunk and a partial one of 2
            (400, 4),  # a member above the chunk size: one member a chunk
        ],
    )
    def test_chunked_defects_equal_the_whole_stack_formulas(self, dim, size):
        e = sample_random_qtpe(dim, size, SeededRng(3))
        noise = 1e-9 * np.random.default_rng(0).standard_normal(e.unitaries.shape)
        e = UnitaryEnsemble(e.dim, e.unitaries + noise, e.involution)
        adjoints = e.unitaries.conj().transpose(0, 2, 1)
        gram = np.matmul(adjoints, e.unitaries) - np.eye(e.dim)
        diffs = e.unitaries[list(e.involution)] - adjoints
        report = validate(e)
        assert report.unitarity_defect == float(np.sqrt(np.sum(np.abs(gram) ** 2, axis=(1, 2))).max())
        assert report.involution_defect == float(np.sqrt(np.sum(np.abs(diffs) ** 2, axis=(1, 2))).max())
        members = e.unitaries.copy()
        members[size - 1, 0, 0] = np.nan  # in the last chunk
        assert np.isnan(validate(UnitaryEnsemble(e.dim, members, e.involution)).unitarity_defect)

    def test_peak_memory_below_the_members(self):
        # the defects go a fixed chunk of members at a time; the whole stack's
        # adjoints, Gram matrices and differences peaked at 3.0x the members
        e = sample_random_qtpe(16, 2048, SeededRng(4))
        tracemalloc.start()
        try:
            validate(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * e.unitaries.nbytes


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

    def test_member_entry_guard_before_any_draw(self, monkeypatch):
        import qtpe.ensemble as ens

        # 8 members of 4 x 4 fill a limit of 128 entries exactly; 10 exceed it
        monkeypatch.setattr(ens, "PRODUCT_ENTRY_LIMIT", 128)
        assert sample_random_qtpe(4, 8, SeededRng(0)).size == 8
        monkeypatch.setattr(ens, "haar_unitary", lambda *args: pytest.fail("a member was drawn"))
        with pytest.raises(SizeLimitError, match="PRODUCT_ENTRY_LIMIT"):
            sample_random_qtpe(4, 10, SeededRng(0))


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

    def test_member_entry_guard_before_concatenation(self, monkeypatch):
        import qtpe.ensemble as ens

        # doubling 3 members of 3 x 3 fills a limit of 54 entries exactly; 4 members exceed it
        monkeypatch.setattr(ens, "PRODUCT_ENTRY_LIMIT", 54)
        assert hermitian_double(raw_haar_ensemble(3, 3, seed=1)).size == 6
        e = raw_haar_ensemble(3, 4, seed=1)
        monkeypatch.setattr(UnitaryEnsemble, "adjoints", lambda self: pytest.fail("the adjoints were formed"))
        with pytest.raises(SizeLimitError, match="PRODUCT_ENTRY_LIMIT"):
            hermitian_double(e)

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

    def test_member_order_and_index_convention(self):
        # member i*s + j is U_i (x) U_j: entry (a*d + b, c*d + e) is U_i[a, c] U_j[b, e]
        e = raw_haar_ensemble(3, 3, seed=4)
        out = tensor_ensemble(e)
        u = e.unitaries
        expected = (u[:, None, :, None, :, None] * u[None, :, None, :, None, :]).reshape(9, 9, 9)
        assert np.array_equal(out.unitaries, expected)

    @pytest.mark.parametrize("n,s", [(1, 1), (2, 3), (3, 4), (8, 16)])
    def test_members_equal_the_kron_stack_bitwise(self, n, s):
        e = sample_random_qtpe(n, s, SeededRng(n)) if s % 2 == 0 else raw_haar_ensemble(n, s, seed=n)
        kron = np.stack([np.kron(a, b) for a in e.unitaries for b in e.unitaries])
        out = tensor_ensemble(e).unitaries
        assert out.shape == kron.shape and out.tobytes() == kron.tobytes()

    def test_peak_memory_holds_the_members_once(self):
        # a list of the s^2 kron products, then their stack, held the members
        # twice: a tracemalloc peak of 33.7 MB for 16.8 MB of members here
        e = sample_random_qtpe(8, 16, SeededRng(3))
        tracemalloc.start()
        try:
            out = tensor_ensemble(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.unitaries.nbytes

    def test_members_are_unitary_without_involution(self):
        out = tensor_ensemble(sample_random_qtpe(3, 4, SeededRng(6)))
        report = validate(out)
        assert out.involution is None and report.passed
        assert report.unitarity_defect <= 1e-13 and report.involution_defect == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_lambda_preserved_t1(self, seed):
        e = raw_haar_ensemble(3, 4, seed)
        assert dense_lambda(tensor_ensemble(e), 1) == pytest.approx(dense_lambda(e, 1), abs=1e-7)

    def test_entry_guard_before_any_member(self, monkeypatch):
        import qtpe.ensemble as ens

        e = raw_haar_ensemble(64, 4, seed=0)  # 16 members of 4096 x 4096: 4 GiB
        monkeypatch.setattr(ens.np, "empty", lambda *args, **kwargs: pytest.fail("the member array was allocated"))
        with pytest.raises(SizeLimitError, match="PRODUCT_ENTRY_LIMIT"):
            tensor_ensemble(e)


def test_product_entry_guard():
    check_product_degree([16, 16], 512)  # 256 * 512^2 = 2^26 entries, at the guard
    with pytest.raises(SizeLimitError, match="PRODUCT_ENTRY_LIMIT"):
        check_product_degree([16, 16], 513)


def test_product_stage_guard():
    # one-member stages keep the degree at 1, so their number is guarded too
    check_product_degree(itertools.repeat(1, 4096), 4)
    with pytest.raises(SizeLimitError, match="stage count exceeds guard 4096"):
        check_product_degree(itertools.repeat(1, 10**9), 4)


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

    PINNED = {  # sha256 of the files the copying writer (bytearray of tobytes) wrote
        "pauli": "313be901bc1d0afd93c981ede60be436dbd5dcf116b491a2aac1c933ede5ba74",
        "phase": "9c81a37c6cfd3baabbb162a0e7871ae3a38d318133fd3942fec0b586ca8d7608",
    }

    @pytest.mark.parametrize("label", sorted(PINNED))
    def test_written_bytes_are_pinned(self, tmp_path, label):
        if label == "pauli":
            members, involution = pauli_ensemble().unitaries, (0, 1, 2, 3)
        else:
            members = np.stack([np.eye(2), [[0, 1], [1, 0]], np.diag([1, 0.6 + 0.8j])]).astype(complex)
            involution = None
        e = UnitaryEnsemble(2, members, involution, label)
        raw = save(e, tmp_path / "e.qtpe").read_bytes()
        header = b"QTPE\x01" + struct.pack("<II", 2, e.size) + bytes([involution is not None])
        if involution is not None:
            header += struct.pack(f"<{e.size}I", *involution)
        entries = b"".join(struct.pack("<dd", z.real, z.imag) for z in members.reshape(-1))
        assert raw == header + entries
        assert hashlib.sha256(raw).hexdigest() == self.PINNED[label]

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
