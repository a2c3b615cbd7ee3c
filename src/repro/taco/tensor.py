"""Tensors stored in SpDISTAL's distributed sparse encoding (paper Fig. 7).

Each storage level is either

* :class:`DenseLevel` — an implicit level of ``size`` slots per parent
  entry (its position space is ``P_parent * size``), or
* :class:`CompressedLevel` — a rect-valued ``pos`` region over the parent's
  position space and a ``crd`` region holding the non-zero coordinates.

``pos[i] = [lo, hi]`` (inclusive) names the positions of entry ``i``'s
children in ``crd`` — the encoding SpDISTAL uses so that Legion's
``image``/``preimage`` can relate partitions of ``pos`` and ``crd``.
Values live in a ``vals`` region over the last level's position space.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import FormatError
from ..legion.index_space import IndexSpace
from ..legion.region import RectRegion, Region, make_pos_region
from .expr import Access, Add, Assignment, IndexExpr
from .formats import CSR, Compressed, Dense, Format, dense_format
from .index_vars import IndexVar

__all__ = ["DenseLevel", "CompressedLevel", "Tensor"]


class DenseLevel:
    """A dense storage level: ``size`` implicit slots per parent entry."""

    def __init__(self, size: int, num_positions: int):
        self.size = int(size)
        self.num_positions = int(num_positions)  # P_l = P_{l-1} * size
        self.pos_ispace = IndexSpace(self.num_positions, name="dense_dom")

    @property
    def is_dense(self) -> bool:
        return True

    @property
    def nbytes(self) -> int:
        return 0  # implicit

    def __repr__(self) -> str:
        return f"DenseLevel(size={self.size})"


class CompressedLevel:
    """A compressed level: rect ``pos`` over the parent positions + ``crd``."""

    def __init__(self, pos: RectRegion, crd: Region):
        self.pos = pos
        self.crd = crd

    @property
    def is_dense(self) -> bool:
        return False

    @property
    def num_positions(self) -> int:
        return self.crd.ispace.volume

    @property
    def pos_ispace(self) -> IndexSpace:
        return self.crd.ispace

    @property
    def nbytes(self) -> int:
        return self.pos.nbytes + self.crd.nbytes

    def counts(self) -> np.ndarray:
        """Children per parent entry (empty ranges count zero)."""
        return np.maximum(self.pos.hi - self.pos.lo + 1, 0)

    def __repr__(self) -> str:
        return f"CompressedLevel(parents={self.pos.ispace.volume}, nnz={self.num_positions})"


class Tensor:
    """A (possibly sparse) tensor packed into per-level regions.

    Construct with :meth:`from_coo`, :meth:`from_dense`, :meth:`from_scipy`
    or :meth:`zeros`; index with ``T[i, j]`` to build tensor index notation.
    """

    def __init__(
        self,
        name: str,
        shape: Sequence[int],
        format: Optional[Format] = None,
        dtype=np.float64,
    ):
        self.name = name
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        self.format = format if format is not None else dense_format(len(self.shape))
        if self.format.order != len(self.shape):
            raise FormatError(
                f"format order {self.format.order} != tensor order {len(self.shape)}"
            )
        self.dtype = np.dtype(dtype)
        self.levels: List[Union[DenseLevel, CompressedLevel]] = []
        self.vals: Optional[Region] = None
        self.assignment: Optional[Assignment] = None
        #: Monotone counter identifying this tensor's *sparsity pattern*.
        #: Bumped whenever the level structure (pos/crd metadata, region
        #: identity) changes — packing, assembly, pattern adoption — but NOT
        #: by in-place writes to ``vals.data``.  Caches key on it so that
        #: value updates reuse partitions while structural changes miss.
        self.pattern_version: int = 0
        #: How many times this tensor's pattern has been rebuilt *as the
        #: assembled output* of an unknown-pattern statement (SpAdd's
        #: two-phase assembly).  An observability counter, not a cache
        #: key: the mechanism that keeps iterative SpAdd from recompiling
        #: is that kernel fingerprints *exclude* the LHS pattern version
        #: for assembled statements (an output pattern is what the kernel
        #: produces, not consumes — see
        #: :func:`repro.core.cache.is_assembled_output`).  The artifact
        #: store records and validates this counter in its manifest, and
        #: consumers of the tensor still see every structural change
        #: through ``pattern_version``.
        self.assembly_version: int = 0
        if self.format.is_all_dense():
            self._init_dense_levels()

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_coo(
        name: str,
        coords: Sequence[np.ndarray],
        vals: np.ndarray,
        shape: Sequence[int],
        format: Optional[Format] = None,
        dtype=np.float64,
    ) -> "Tensor":
        t = Tensor(name, shape, format, dtype)
        t._pack(
            [np.asarray(c, dtype=np.int64) for c in coords],
            np.asarray(vals, dtype=t.dtype),
        )
        return t

    @staticmethod
    def from_dense(name: str, array: np.ndarray, format: Optional[Format] = None) -> "Tensor":
        array = np.asarray(array)
        t = Tensor(name, array.shape, format, array.dtype)
        if t.format.is_all_dense():
            t._set_dense_values(array)
        else:
            nz = np.nonzero(array)
            t._pack([np.asarray(c, dtype=np.int64) for c in nz], array[nz])
        return t

    @staticmethod
    def from_scipy(name: str, mat, format: Optional[Format] = None) -> "Tensor":
        """Pack a SciPy sparse matrix; ``format=None`` packs it as CSR (a
        sparse operand stays sparse)."""
        coo = mat.tocoo()
        if format is None:
            format = CSR
        return Tensor.from_coo(
            name,
            [coo.row.astype(np.int64), coo.col.astype(np.int64)],
            coo.data,
            coo.shape,
            format,
        )

    @staticmethod
    def zeros(
        name: str, shape: Sequence[int], format: Optional[Format] = None, dtype=np.float64
    ) -> "Tensor":
        t = Tensor(name, shape, format, dtype)
        if not t.format.is_all_dense():
            # Sparse output: structurally empty until assembled.
            t._pack([np.empty(0, dtype=np.int64) for _ in shape], np.empty(0, dtype=dtype))
        return t

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored values (the last level's position count)."""
        return 0 if self.vals is None else self.vals.ispace.volume

    @property
    def nbytes(self) -> int:
        lvl = sum(l.nbytes for l in self.levels)
        return lvl + (self.vals.nbytes if self.vals is not None else 0)

    def stored_shape(self) -> Tuple[int, ...]:
        """Dimension sizes in storage-level order."""
        return tuple(self.shape[m] for m in self.format.mode_ordering)

    def regions(self):
        """Yield this tensor's backing regions (each ``pos``/``crd`` of the
        compressed levels, then ``vals``), deduplicated by identity —
        ``adopt_pattern`` shares level regions between tensors."""
        seen = set()
        for lvl in self.levels:
            if isinstance(lvl, CompressedLevel):
                for region in (lvl.pos, lvl.crd):
                    if id(region) not in seen:
                        seen.add(id(region))
                        yield region
        if self.vals is not None and id(self.vals) not in seen:
            yield self.vals

    def ensure_writable(self) -> int:
        """Promote every read-only (mmap-backed) region of this tensor to a
        private writable copy (see :meth:`repro.legion.region.Region.promote`);
        returns the number of regions promoted.  Required before writing
        ``region.data`` directly on a tensor loaded with ``mmap=True`` —
        region-method writes promote automatically, raw NumPy writes do not.
        Promotions fire the registered ``pattern_version`` bump hooks, so
        call this *before* the first compile over the tensor (or pass
        ``writable=[name]`` to ``load_packed``) to keep warm-start cache
        hits intact."""
        return sum(1 for r in self.regions() if r.promote())

    # ------------------------------------------------------------------ #
    # index notation
    # ------------------------------------------------------------------ #
    def __getitem__(self, indices) -> Access:
        if isinstance(indices, IndexVar):
            indices = (indices,)
        return Access(self, indices)

    def __setitem__(self, indices, expr) -> None:
        if isinstance(indices, IndexVar):
            indices = (indices,)
        lhs = Access(self, indices)
        accumulate = False
        if isinstance(expr, Add) and expr.operands:
            first = expr.operands[0]
            if (
                isinstance(first, Access)
                and first.tensor is self
                and first.indices == lhs.indices
            ):
                accumulate = True
                rest = expr.operands[1:]
                expr = rest[0] if len(rest) == 1 else Add(rest)
        self.assignment = Assignment(lhs, expr, accumulate=accumulate)
        # Lazy programs (repro.api) capture assignments written inside a
        # ``with session.program()`` block; a no-op when none is active.
        from .capture import notify_assignment

        notify_assignment(self.assignment)

    def schedule(self):
        """Start scheduling the statement last assigned to this tensor."""
        if self.assignment is None:
            raise ValueError(f"no statement assigned to {self.name}")
        from .schedule import Schedule

        return Schedule(self.assignment)

    def _bump_pattern_version(self) -> None:
        """Record a sparsity-pattern mutation (new levels / metadata regions).

        Invalidates cached partitions and compiled kernels that captured the
        old structure (their cache keys embed the version).  Value-only
        writes must not call this.
        """
        self.pattern_version += 1

    def _bump_assembly_version(self) -> None:
        """Record one re-assembly of this tensor as an unknown-pattern
        output (see ``assembly_version``).  Always paired with a
        ``_bump_pattern_version`` by the assembly code — input-side caches
        must still see the structural change."""
        self.assembly_version += 1

    # ------------------------------------------------------------------ #
    # persistence (the artifact store; see repro.core.store)
    # ------------------------------------------------------------------ #
    def save(self, path, *, include_caches: bool = True, runtime=None):
        """Persist this packed tensor (pickle + JSON manifest) to ``path``.

        With ``include_caches`` (the default) every kernel-cache and
        partition-memo entry referencing this tensor is stored alongside —
        including the companion tensors and runtimes those entries pin — so
        :meth:`load` in a fresh process warm-starts straight to the cached
        steady state.  Delegates to :func:`repro.core.store.save_packed`.
        """
        from ..core.store import save_packed

        return save_packed(path, self, include_caches=include_caches,
                           runtime=runtime)

    @staticmethod
    def load(path) -> "Tensor":
        """Load the primary tensor of an artifact saved by :meth:`save`,
        re-seeding the kernel cache and partition memo as a side effect.
        Use :func:`repro.core.store.load_packed` to also reach the
        companion tensors and the restored runtime."""
        from ..core.store import load_packed

        return load_packed(path).tensor

    # ------------------------------------------------------------------ #
    # packing (COO -> levels)
    # ------------------------------------------------------------------ #
    def _init_dense_levels(self) -> None:
        """All-dense tensors store an N-D vals region (stored-shape order),
        so dense distributions partition it with N-D rectangles directly."""
        self.levels = []
        p = 1
        for size in self.stored_shape():
            p *= size
            self.levels.append(DenseLevel(size, p))
        self.vals = Region(
            IndexSpace(self.stored_shape(), name=f"{self.name}_vals"),
            self.dtype,
            name=f"{self.name}.vals",
        )
        self._bump_pattern_version()

    def _set_dense_values(self, array: np.ndarray) -> None:
        self._init_dense_levels()
        stored = np.transpose(array, self.format.mode_ordering)
        self.vals.data[...] = np.ascontiguousarray(stored).astype(self.dtype)

    def _pack(self, coords: List[np.ndarray], vals: np.ndarray) -> None:
        if self.format.is_all_dense():
            dense = np.zeros(self.shape, dtype=self.dtype)
            if vals.size:
                np.add.at(dense, tuple(np.asarray(c, dtype=np.int64) for c in coords), vals)
            self._set_dense_values(dense)
            return
        order = self.order
        if len(coords) != order:
            raise ValueError(f"expected {order} coordinate arrays, got {len(coords)}")
        nnz = vals.size
        for mode, c in enumerate(coords):
            if c.size != nnz:
                raise ValueError("coordinate/value length mismatch")
            if c.size and (c.min() < 0 or c.max() >= self.shape[mode]):
                raise ValueError(f"mode-{mode} coordinates out of bounds")
        stored = [coords[m] for m in self.format.mode_ordering]
        sizes = self.stored_shape()

        if nnz:
            # Lexicographic sort by storage order, then fold duplicates.  A
            # stable sort of sorted keys is the identity, so skip it when the
            # input (e.g. canonical CSR) is already in order.
            tied = _sorted_ties(stored)
            if tied is None:
                sort = np.lexsort(tuple(reversed(stored)))
                stored = [c[sort] for c in stored]
                vals = vals[sort]
                tied = _sorted_ties(stored)
            if tied.any():
                dup = np.ones(nnz, dtype=bool)
                dup[1:] = ~tied
                group = np.cumsum(dup) - 1
                vals = np.bincount(group, weights=vals, minlength=group[-1] + 1).astype(
                    self.dtype
                )
                stored = [c[dup] for c in stored]
                nnz = vals.size

        self.levels = []
        parent_ids = np.zeros(nnz, dtype=np.int64)
        num_parents = 1
        for l, lf in enumerate(self.format.levels):
            size = sizes[l]
            if lf.is_dense:
                parent_ids = parent_ids * size + stored[l]
                num_parents *= size
                self.levels.append(DenseLevel(size, num_parents))
            else:
                if nnz:
                    change = np.ones(nnz, dtype=bool)
                    change[1:] = (parent_ids[1:] != parent_ids[:-1]) | (
                        stored[l][1:] != stored[l][:-1]
                    )
                    entry_ids = np.cumsum(change) - 1
                    crd_vals = stored[l][change]
                    parents_of_entries = parent_ids[change]
                    counts = np.bincount(parents_of_entries, minlength=num_parents)
                else:
                    entry_ids = parent_ids
                    crd_vals = np.empty(0, dtype=np.int64)
                    counts = np.zeros(num_parents, dtype=np.int64)
                pos = make_pos_region(counts, name=f"{self.name}.pos{l}")
                crd = Region(
                    IndexSpace(crd_vals.size, name=f"{self.name}_crd{l}"),
                    np.int64,
                    data=crd_vals,
                    name=f"{self.name}.crd{l}",
                )
                self.levels.append(CompressedLevel(pos, crd))
                parent_ids = entry_ids
                num_parents = crd_vals.size
        self.vals = Region(
            IndexSpace(num_parents, name=f"{self.name}_vals"), self.dtype,
            name=f"{self.name}.vals",
        )
        if nnz:
            np.add.at(self.vals.data, parent_ids, vals)
        self._bump_pattern_version()

    # ------------------------------------------------------------------ #
    # unpacking
    # ------------------------------------------------------------------ #
    def to_coo(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """Return stored coordinates (tensor-mode order) and values.

        Dense levels enumerate every slot, so explicit zeros under a dense
        level are included — matching what the structure actually stores.
        """
        if self.vals is None:
            return [np.empty(0, dtype=np.int64) for _ in self.shape], np.empty(0, self.dtype)
        if self.format.is_all_dense():
            grids = np.indices(self.stored_shape()).reshape(self.order, -1)
            coords_mode: List[np.ndarray] = [None] * self.order  # type: ignore
            for l, m in enumerate(self.format.mode_ordering):
                coords_mode[m] = grids[l].astype(np.int64)
            return coords_mode, self.vals.data.ravel().copy()
        coords_storage: List[np.ndarray] = []
        current = np.zeros(1, dtype=np.int64)  # positions at the current level
        for lvl in self.levels:
            if lvl.is_dense:
                p = current.size
                parent_sel = np.repeat(np.arange(p), lvl.size)
                coord = np.tile(np.arange(lvl.size, dtype=np.int64), p)
                coords_storage = [c[parent_sel] for c in coords_storage]
                coords_storage.append(coord)
                current = current[parent_sel] * lvl.size + coord
            else:
                counts = lvl.counts()[current]
                parent_sel = np.repeat(np.arange(current.size), counts)
                starts = lvl.pos.lo[current]
                offsets = np.concatenate(
                    [np.arange(c, dtype=np.int64) for c in counts]
                ) if counts.size else np.empty(0, dtype=np.int64)
                child_pos = starts[parent_sel] + offsets
                coords_storage = [c[parent_sel] for c in coords_storage]
                coords_storage.append(lvl.crd.data[child_pos])
                current = child_pos
        values = self.vals.data[current]
        coords_mode: List[np.ndarray] = [None] * self.order  # type: ignore
        for l, m in enumerate(self.format.mode_ordering):
            coords_mode[m] = coords_storage[l]
        return coords_mode, values

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.dtype)
        coords, vals = self.to_coo()
        if vals.size:
            np.add.at(out, tuple(coords), vals)
        return out

    def to_scipy(self):
        import scipy.sparse as sp

        if self.order != 2:
            raise ValueError("to_scipy requires a matrix")
        coords, vals = self.to_coo()
        return sp.coo_matrix((vals, (coords[0], coords[1])), shape=self.shape).tocsr()

    # ------------------------------------------------------------------ #
    # convenient raw views for leaf kernels
    # ------------------------------------------------------------------ #
    def dense_array(self) -> np.ndarray:
        """The values of an all-dense tensor, shaped in tensor-mode order."""
        if not self.format.is_all_dense():
            raise FormatError(f"{self.name} is not dense")
        inverse = np.argsort(self.format.mode_ordering)
        return np.transpose(self.vals.data, inverse)

    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pos, crd, vals) of a {Dense, Compressed} matrix (rect-pos form)."""
        if len(self.levels) != 2 or self.levels[0].is_dense is False or self.levels[1].is_dense:
            raise FormatError(f"{self.name} is not in a {{Dense, Compressed}} format")
        lvl = self.levels[1]
        return lvl.pos.data, lvl.crd.data, self.vals.data

    def level(self, l: int) -> Union[DenseLevel, CompressedLevel]:
        return self.levels[l]

    def __repr__(self) -> str:
        return (
            f"Tensor({self.name}, shape={self.shape}, format={self.format.name}, "
            f"nnz={self.nnz})"
        )


def _sorted_ties(keys: List[np.ndarray]) -> Optional[np.ndarray]:
    """Which tuples of ``zip(*keys)`` equal their predecessor, or None when
    the tuples are not in non-decreasing order."""
    tied = np.ones(keys[0].size - 1, dtype=bool)
    for k in keys:
        if (tied & (k[1:] < k[:-1])).any():
            return None
        tied &= k[1:] == k[:-1]
    return tied
