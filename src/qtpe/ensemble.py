"""Unitary ensembles: the central data type, its algebra, and file I/O.

An ensemble is a degree-s set of n x n unitaries with uniform weights 1/s and
an optional index involution `-` satisfying U_{-i} = U_i†. Constructors cover
Haar-random sampling plus the doubling / squaring / tensoring operations.
Every product ensemble (the square here, the zigzag products in zigzag.py) is
declared as a list of stages and formed by product_ensemble, the one place
that forms product members and guards their number. The ensemble keeps its
stages, and the moment operator applies them one stage at a time.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import EnsembleFormatError, PreconditionError, SizeLimitError
from .linalg import ITERATIVE_AMBIENT_LIMIT, SeededRng, haar_unitary

MAGIC = b"QTPE"
FORMAT_VERSION = 1
PRODUCT_DEGREE_LIMIT = 4096
# degree * dim^2 complex entries of the members of one product, sample or double: 1 GiB
PRODUCT_ENTRY_LIMIT = 2**26
# members' complex entries per chunk of validate's defects: 2 MiB per
# temporary. Members this small are measured in one pass, as whole stacks
# were: split in two, the 83k entries of a 16-member product on C^72 made the
# next product build about 0.9 ms slower on 2 vCPUs, through glibc malloc's
# reuse of freed blocks
_DEFECT_CHUNK_ENTRIES = 2**17


@dataclass
class Stage:
    """One factor set of a product ensemble, lifted or controlled.

    Lifted (no `relabel`): the s unitaries 1_outer (x) A_i, `members` the
    (s, m, m) stack of the A_i acting on the inner axis of C^outer (x) C^m;
    `outer` = 1 makes the A_i act on the whole space.

    Controlled (`relabel` given): the one control unitary
    sum_b U_b (x) |relabel[b]><b| on C^(D*s), the zigzag products' Gdot,
    `members` the (s, D, D) stack of its blocks U_b and `relabel` a
    permutation of range(s). Its size is 1 and its inner dimension D*s;
    `outer` stays 1.
    """

    members: np.ndarray
    outer: int = 1
    relabel: tuple[int, ...] | None = None

    def __post_init__(self):
        self.members = np.ascontiguousarray(self.members, dtype=complex)
        if self.members.ndim != 3 or self.members.shape[1] != self.members.shape[2] or self.outer < 1:
            raise PreconditionError(f"a stage needs an (s, m, m) stack and outer >= 1, got {self.members.shape}")
        if self.relabel is not None:
            self.relabel = tuple(int(b) for b in self.relabel)
            if sorted(self.relabel) != list(range(self.members.shape[0])) or self.outer != 1:
                raise PreconditionError("a controlled stage needs a relabel permuting its blocks and outer 1")
        self.members.setflags(write=False)

    @property
    def size(self) -> int:
        return 1 if self.relabel is not None else self.members.shape[0]

    @property
    def inner(self) -> int:
        s, m, _ = self.members.shape
        return m * s if self.relabel is not None else m

    def factors(self) -> np.ndarray:
        """The (size, outer*inner, outer*inner) stack of the stage's unitaries:
        the lifted factors 1_outer (x) A_i, or the control unitary, which maps
        e_a (x) e_b to (U_b e_a) (x) e_{relabel[b]}."""
        if self.relabel is not None:
            s, dd, _ = self.members.shape
            out = np.zeros((dd, s, dd, s), dtype=complex)
            out[:, list(self.relabel), :, range(s)] = self.members
            return out.reshape(1, self.inner, self.inner)
        if self.outer == 1:
            return self.members
        eye = np.eye(self.outer)
        return np.stack([np.kron(eye, a) for a in self.members])


@dataclass
class UnitaryEnsemble:
    """Degree-s set of dim x dim unitaries with optional Hermitian involution.

    `unitaries` is stored as an (s, dim, dim) complex array; `involution`
    maps index i to -i (0-based) when present. `stages`, when present, is
    the factorisation (S_1, ..., S_m) of a product ensemble: the members are
    the products F_1 F_2 ... F_m of one factor from each stage, in
    lexicographic order of the factor indices. product_ensemble forms those
    members from the stages and attaches them; no other constructor does,
    and stages are never written to a file. Treated as immutable after
    construction, which lets involution_defect keep its value on the
    ensemble; dataclasses.replace builds a new ensemble, which measures its
    own.
    """

    dim: int
    unitaries: np.ndarray
    involution: tuple[int, ...] | None = None
    label: str = ""
    stages: tuple[Stage, ...] | None = None
    _involution_defect: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.unitaries = np.ascontiguousarray(self.unitaries, dtype=complex)
        if self.unitaries.ndim != 3 or self.unitaries.shape[1:] != (self.dim, self.dim):
            raise PreconditionError(
                f"unitaries must have shape (s, {self.dim}, {self.dim}), got {self.unitaries.shape}"
            )
        if self.unitaries.shape[0] < 1:
            raise PreconditionError("an ensemble needs at least one member")
        if self.involution is not None:
            self.involution = tuple(int(i) for i in self.involution)
            if len(self.involution) != self.size:
                raise PreconditionError("involution length must equal the degree")
        if self.stages is not None:
            self.stages = tuple(self.stages)
            if any(st.outer * st.inner != self.dim for st in self.stages):
                raise PreconditionError(f"every stage must act on dimension {self.dim}")
            if math.prod(st.size for st in self.stages) != self.size:
                raise PreconditionError("the stage sizes must multiply to the degree")
        self.unitaries.setflags(write=False)

    @property
    def size(self) -> int:
        return self.unitaries.shape[0]

    def member(self, i: int) -> np.ndarray:
        return self.unitaries[i]

    def adjoints(self) -> np.ndarray:
        return self.unitaries.conj().transpose(0, 2, 1)


@dataclass
class ValidationReport:
    """Defect summary for an ensemble; passes iff every defect is <= tol."""

    unitarity_defect: float
    involution_defect: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.unitarity_defect <= self.tol and self.involution_defect <= self.tol


def _is_involution(inv: tuple[int, ...]) -> bool:
    """Whether i -> inv[i] is a bijective involution of range(len(inv))."""
    return sorted(inv) == list(range(len(inv))) and all(inv[j] == i for i, j in enumerate(inv))


def involution_defect(e: UnitaryEnsemble) -> float:
    """max_i ||U_{-i} - U_i†||_F: 0 when the involution holds exactly, infinite
    without one or when it is not a bijective involution of the indices.
    Measured once per ensemble (validate and both lambda paths read it) and
    kept on it."""
    if e._involution_defect is None:
        e._involution_defect = _measure_involution_defect(e)
    return e._involution_defect


def _measure_involution_defect(e: UnitaryEnsemble) -> float:
    if e.involution is None or not _is_involution(e.involution):
        return math.inf
    partners = list(e.involution)
    return _max_member_norm(e, lambda u, lo: e.unitaries[partners[lo : lo + len(u)]] - u.conj().transpose(0, 2, 1))


def _max_member_norm(e: UnitaryEnsemble, defect) -> float:
    """max_i ||D_i||_F, where defect(u, lo) gives the defect matrices D_i of the
    members u = U_lo, U_lo+1, ... of one chunk. A chunk holds
    _DEFECT_CHUNK_ENTRIES entries, so the temporaries keep one size whatever
    the degree; the norms, and so their maximum, are each member's own."""
    norms = np.empty(e.size)
    step = max(1, _DEFECT_CHUNK_ENTRIES // (e.dim * e.dim))
    for lo in range(0, e.size, step):
        u = e.unitaries[lo : lo + step]
        norms[lo : lo + len(u)] = np.sqrt(np.sum(np.abs(defect(u, lo)) ** 2, axis=(1, 2)))
    return float(norms.max())


def validate(e: UnitaryEnsemble, tol: float = 1e-10) -> ValidationReport:
    """Report unitarity and involution consistency; an ensemble without an
    involution has none to break, so its involution defect is 0."""
    eye = np.eye(e.dim)
    unitarity = _max_member_norm(e, lambda u, _: np.matmul(u.conj().transpose(0, 2, 1), u) - eye)
    return ValidationReport(unitarity, 0.0 if e.involution is None else involution_defect(e), tol=tol)


def sample_random_qtpe(d: int, s: int, rng: SeededRng, label: str = "") -> UnitaryEnsemble:
    """Haar-random ensemble: s/2 independent Haar unitaries plus their adjoints.

    Requires even s >= 4. Involution is -i = (i + s/2) mod s, making the
    result explicitly Hermitian. A dimension whose t=1 moment space d^2
    already exceeds the iterative limit is refused before any draw, since
    no lambda of such an ensemble can be measured at any t, and so is a
    degree whose members would hold more than PRODUCT_ENTRY_LIMIT entries.
    """
    if s < 4 or s % 2 != 0:
        raise PreconditionError(f"degree must be an even integer >= 4, got {s}")
    if d < 1:
        raise PreconditionError(f"dimension must be >= 1, got {d}")
    if d * d > ITERATIVE_AMBIENT_LIMIT:
        raise SizeLimitError(f"dimension {d}: d^2 = {d * d} exceeds the iterative limit {ITERATIVE_AMBIENT_LIMIT}")
    _check_member_entries(s, d)
    half = np.stack([haar_unitary(d, rng.child(i)) for i in range(s // 2)])
    return replace(hermitian_double(UnitaryEnsemble(d, half)), label=label or f"haar-d{d}-s{s}")


def hermitian_double(e: UnitaryEnsemble) -> UnitaryEnsemble:
    """Union with the adjoint family (kept with multiplicity): degree exactly 2s.
    Members that would hold more than PRODUCT_ENTRY_LIMIT entries are
    refused before they are formed."""
    _check_member_entries(2 * e.size, e.dim)
    members = np.concatenate([e.unitaries, e.adjoints()])
    s = e.size
    involution = tuple(list(range(s, 2 * s)) + list(range(s)))
    return UnitaryEnsemble(e.dim, members, involution, f"double({e.label})" if e.label else "double")


def product_ensemble(stages: list[Stage], involution: tuple[int, ...] | None, label: str) -> UnitaryEnsemble:
    """Every product F_1 ... F_m of one factor per stage (Stage.factors).

    The only place product members are formed: in lexicographic order of
    the factor indices, left to right with one broadcast matmul per stage.
    Too large a product is refused (check_product_degree) before anything
    is allocated. The result carries `stages`.
    """
    check_product_degree([st.size for st in stages], stages[0].outer * stages[0].inner)
    members = stages[0].factors()
    for st in stages[1:]:
        f = st.factors()
        members = np.matmul(members[:, None], f[None]).reshape(-1, *f.shape[1:])
    return UnitaryEnsemble(members.shape[1], members, involution, label, stages)


def check_product_degree(sizes: Iterable[int], dim: int) -> None:
    """Refuse a product on C^dim of stages of these sizes whose degree prod |S_i|
    or number of stages exceeds PRODUCT_DEGREE_LIMIT, or whose members would
    hold more than PRODUCT_ENTRY_LIMIT entries (degree * dim^2). Either is
    refused at the first stage that takes it past the limit, so a long run
    of stages, one-member ones included, never forms a huge integer, nor
    needs to be held as a list."""
    degree = 1
    for count, size in enumerate(sizes, 1):
        degree *= size
        if degree > PRODUCT_DEGREE_LIMIT:
            raise SizeLimitError(f"product degree of the first {count} stages exceeds guard {PRODUCT_DEGREE_LIMIT}")
        if count > PRODUCT_DEGREE_LIMIT:
            raise SizeLimitError(f"product stage count exceeds guard {PRODUCT_DEGREE_LIMIT}")
    _check_member_entries(degree, dim)


def _check_member_entries(degree: int, dim: int) -> None:
    """Refuse degree members on C^dim that would hold more than
    PRODUCT_ENTRY_LIMIT entries (degree * dim^2), before any is formed."""
    entries = degree * dim * dim
    if entries > PRODUCT_ENTRY_LIMIT:
        raise SizeLimitError(f"{entries} member entries exceed guard PRODUCT_ENTRY_LIMIT {PRODUCT_ENTRY_LIMIT}")


def square_compose(e: UnitaryEnsemble) -> UnitaryEnsemble:
    """All s^2 products U_i U_j in row-major (i, j) order; no involution attached."""
    stage = Stage(e.unitaries)
    return product_ensemble([stage, stage], None, f"square({e.label})" if e.label else "square")


def tensor_ensemble(e: UnitaryEnsemble) -> UnitaryEnsemble:
    """All s^2 tensor products U_i (x) U_j on dimension dim^2, member i*s + j
    being U_i (x) U_j. One multiply of broadcast views writes every entry
    U_i[a, c] U_j[b, e] into the one (s, s, d, d, d, d) member array, so the
    members are held once."""
    check_product_degree([e.size, e.size], e.dim * e.dim)
    s, d, u = e.size, e.dim, e.unitaries
    members = np.empty((s, s, d, d, d, d), dtype=complex)
    np.multiply(u[:, None, :, None, :, None], u[None, :, None, :, None, :], out=members)
    label = f"tensor({e.label})" if e.label else "tensor"
    return UnitaryEnsemble(d * d, members.reshape(s * s, d * d, d * d), None, label)


def sidecar_path(path: Path) -> Path:
    return path.with_suffix(".json")


def read_sidecar(path: str | Path) -> dict:
    """The JSON sidecar of an ensemble file; empty when it is absent, unreadable or not a JSON object."""
    try:
        meta = json.loads(sidecar_path(Path(path)).read_text())
    except (OSError, ValueError, RecursionError):
        return {}
    return meta if isinstance(meta, dict) else {}


def save(e: UnitaryEnsemble, path: str | Path, sidecar: dict | None = None) -> Path:
    """Write the bit-exact binary format plus a JSON sidecar with provenance.

    Layout: magic "QTPE", version byte 0x01, little-endian u32 dim, u32 count,
    u8 involution flag, optional count u32 involution targets, then
    count*dim^2 complex entries as little-endian f64 pairs (real, imag),
    row-major per unitary. The binary file alone is authoritative for
    numerics.
    """
    path = Path(path)
    header = MAGIC + bytes([FORMAT_VERSION]) + struct.pack("<II", e.dim, e.size) + bytes([e.involution is not None])
    if e.involution is not None:
        header += struct.pack(f"<{e.size}I", *e.involution)
    payload = np.ascontiguousarray(e.unitaries, dtype="<c16")  # no copy when already so laid out
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.data)
    meta = {"label": e.label, **(sidecar or {})}
    sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path


def load(path: str | Path) -> UnitaryEnsemble:
    """Read the binary format back; round-trips save() bit-exactly."""
    path = Path(path)
    raw = memoryview(path.read_bytes())  # every field a view of the bytes, not a copy
    off = 0

    def take(nbytes: int, fieldname: str) -> memoryview:
        nonlocal off
        if off + nbytes > len(raw):
            raise EnsembleFormatError(fieldname, f"file truncated at byte {off} (need {nbytes} more)")
        out = raw[off : off + nbytes]
        off += nbytes
        return out

    if take(4, "magic") != MAGIC:
        raise EnsembleFormatError("magic", "not a QTPE ensemble file")
    version = take(1, "version")[0]
    if version != FORMAT_VERSION:
        raise EnsembleFormatError("version", f"unsupported version {version}")
    dim, count = struct.unpack("<II", take(8, "dim/count"))
    if dim < 1:
        raise EnsembleFormatError("dim", f"dimension must be positive, got {dim}")
    if count < 1:
        raise EnsembleFormatError("count", f"count must be positive, got {count}")
    flag = take(1, "involution-flag")[0]
    if flag not in (0, 1):
        raise EnsembleFormatError("involution-flag", f"must be 0 or 1, got {flag}")
    involution = None
    if flag:
        vals = struct.unpack(f"<{count}I", take(4 * count, "involution"))
        if not _is_involution(vals):
            raise EnsembleFormatError("involution", "not a bijective involution on the index set")
        involution = tuple(vals)
    payload = take(count * dim * dim * 16, "payload")
    if off != len(raw):
        raise EnsembleFormatError("payload", f"{len(raw) - off} trailing bytes after payload")
    # one copy out of the file's bytes: a view of them would start at byte
    # 14 + 4 count, unaligned, and numpy copies an unaligned operand at every GEMM
    members = np.frombuffer(payload, dtype="<c16").astype(complex).reshape(count, dim, dim)
    return UnitaryEnsemble(dim, members, involution, str(read_sidecar(path).get("label", "")))
