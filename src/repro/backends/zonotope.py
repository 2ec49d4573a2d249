"""Logical-zonotope backend: generator-matrix XOR/AND set arithmetic.

A *logical zonotope* (Alanwar et al., see PAPERS.md) represents a set
of binary vectors as ``c XOR {sum_i beta_i g_i : beta in {0,1}^k}`` — a
center ``c`` and generator vectors ``g_i`` over GF(2).  Because GF(2)
coefficients are exactly ``{0,1}``, the generated set is the *linear
span* of the generators shifted by the center: every logical zonotope
is an affine coset of GF(2)^n.  That observation drives this whole
module: generator matrices canonicalize by Gaussian elimination, set
equality is comparison of canonical forms, and cardinality is
``2**rank``.

**Image computation** evaluates the netlist over *affine forms* — each
net carries ``const XOR sum_i a_i beta_i`` with coefficient bitmask
``a`` over shared generator symbols, preserving correlations exactly
through XOR/XNOR/NOT/BUF.  AND is where zonotopes over-approximate:

    (cu + tA)(cv + tB) = cu cv + cu tB + cv tA + tA tB

and ``tA tB`` expands to the affine term ``sum a_i b_i beta_i`` plus the
nonlinear residue ``sum_{i<j} (a_i b_j + a_j b_i) beta_i beta_j``.  The
residue is zero exactly when ``A == B`` or either is zero (so ``x AND
x``-style correlations stay exact); otherwise it is replaced by one
**fresh generator symbol per distinct operand pair** — sound because
for every concrete ``beta`` the fresh symbol can take the residue's
true value, and every downstream use shares the same symbol.  An image
is exact iff no residue symbol survives into the next-state generator
columns (residues that cancel structurally, e.g. through XOR, cost
nothing).

**Union** returns the affine hull (``span(G_a, G_b, c_a XOR c_b)``),
which is exact iff the hull's cardinality equals ``|A| + |B| - |A & B|``
— checked by rank arithmetic, so the ``exact`` flag never guesses.

**Pre-image** solves the affine relation: with state bits as free
symbols, the latch forms give ``next = C XOR M beta``; states with a
successor in target ``T`` are the projection onto the state symbols of
the solution space of ``M beta XOR G_T tau = C XOR c_T`` — one GF(2)
linear solve.  Exact when the relation needed no residue symbols.

Every operation keeps the one-way ``exact`` ratchet of
:mod:`repro.backends.protocol`: results are always supersets of the
true set, never under-approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuits.netlist import Circuit
from ..errors import CircuitError, ResourceLimitError
from .protocol import SetBackend, State

# ----------------------------------------------------------------------
# GF(2) linear algebra on int-packed row vectors
# ----------------------------------------------------------------------


def rref(rows: Iterable[int]) -> Tuple[int, ...]:
    """Reduced row-echelon basis of the span of ``rows``.

    Rows are bit-packed GF(2) vectors.  The result is fully reduced
    (each pivot bit appears in exactly one row) and sorted by
    descending pivot — a canonical basis for the span.
    """
    basis: Dict[int, int] = {}
    for row in rows:
        row = reduce_by(row, basis)
        if not row:
            continue
        pivot = row.bit_length() - 1
        for p, existing in basis.items():
            if existing >> pivot & 1:
                basis[p] = existing ^ row
        basis[pivot] = row
    return tuple(basis[p] for p in sorted(basis, reverse=True))


def reduce_by(vector: int, basis: Dict[int, int]) -> int:
    """Canonical residue of ``vector`` modulo a fully reduced basis."""
    for pivot, row in basis.items():
        if vector >> pivot & 1:
            vector ^= row
    return vector


def _basis_map(rows: Sequence[int]) -> Dict[int, int]:
    return {row.bit_length() - 1: row for row in rows}


def in_span(vector: int, rows: Sequence[int]) -> bool:
    """Membership of ``vector`` in the span of a reduced basis."""
    return reduce_by(vector, _basis_map(rows)) == 0


def solve_affine(
    equations: Sequence[Tuple[int, int]], unknowns: int
) -> Optional[Tuple[int, List[int]]]:
    """Solve ``A u = d`` over GF(2).

    ``equations`` are ``(coefficient_mask, rhs_bit)`` rows over
    ``unknowns`` bit-indexed variables.  Returns ``(particular,
    null_basis)`` — the full solution set is ``particular XOR
    span(null_basis)`` — or None when inconsistent.
    """
    pivots: Dict[int, Tuple[int, int]] = {}
    for mask, rhs in equations:
        for pivot, (row_mask, row_rhs) in pivots.items():
            if mask >> pivot & 1:
                mask ^= row_mask
                rhs ^= row_rhs
        if mask == 0:
            if rhs:
                return None
            continue
        pivot = mask.bit_length() - 1
        for p, (row_mask, row_rhs) in list(pivots.items()):
            if row_mask >> pivot & 1:
                pivots[p] = (row_mask ^ mask, row_rhs ^ rhs)
        pivots[pivot] = (mask, rhs)
    particular = 0
    for pivot, (_, rhs) in pivots.items():
        if rhs:
            particular |= 1 << pivot
    null_basis = []
    for free in range(unknowns):
        if free in pivots:
            continue
        vector = 1 << free
        for pivot, (mask, _) in pivots.items():
            if mask >> free & 1:
                vector |= 1 << pivot
        null_basis.append(vector)
    return particular, null_basis


# ----------------------------------------------------------------------
# The zonotope handle
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Zonotope:
    """One set handle: an affine coset in canonical form (or empty).

    ``center`` is reduced modulo the generator span and ``gens`` is a
    reduced row-echelon basis, so two handles denote the same set iff
    their fields compare equal (``exact`` rides along but is not part
    of set identity).
    """

    width: int
    center: int
    gens: Tuple[int, ...]
    exact: bool = True
    is_empty: bool = False

    @classmethod
    def make(
        cls,
        width: int,
        center: int,
        gens: Iterable[int],
        exact: bool,
    ) -> "Zonotope":
        basis = rref(gens)
        center = reduce_by(center, _basis_map(basis))
        return cls(width, center, basis, exact)

    @classmethod
    def empty_set(cls, width: int, exact: bool = True) -> "Zonotope":
        return cls(width, 0, (), exact, is_empty=True)

    @property
    def rank(self) -> int:
        return len(self.gens)

    def same_set(self, other: "Zonotope") -> bool:
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        return self.center == other.center and self.gens == other.gens


# Affine forms used during gate evaluation: (constant bit, coefficient
# bitmask over generator symbols).
_Form = Tuple[int, int]


class _FormEvaluator:
    """Evaluates the combinational core over shared-symbol affine forms."""

    def __init__(self, circuit: Circuit, next_symbol: int) -> None:
        self.circuit = circuit
        self.next_symbol = next_symbol
        #: Residue symbol per distinct AND-operand coefficient pair
        #: (symmetric in the pair), so repeated structure reuses one
        #: symbol instead of loosening twice.
        self._residues: Dict[Tuple[int, int], int] = {}

    @property
    def residue_symbols(self) -> List[int]:
        return sorted(self._residues.values())

    def _and(self, u: _Form, v: _Form) -> _Form:
        cu, a = u
        cv, b = v
        coeffs = (b if cu else 0) ^ (a if cv else 0) ^ (a & b)
        if a and b and a != b:
            key = (a, b) if a <= b else (b, a)
            symbol = self._residues.get(key)
            if symbol is None:
                symbol = self.next_symbol
                self.next_symbol += 1
                self._residues[key] = symbol
            coeffs ^= 1 << symbol
        return (cu & cv, coeffs)

    def _not(self, u: _Form) -> _Form:
        return (u[0] ^ 1, u[1])

    def evaluate(self, values: Dict[str, _Form]) -> Dict[str, _Form]:
        """Fill ``values`` (seeded with input/state forms) gate by gate."""
        for gate in self.circuit.topological_gates():
            operands = [values[net] for net in gate.inputs]
            op = gate.op
            if op in ("AND", "NAND"):
                acc = operands[0]
                for v in operands[1:]:
                    acc = self._and(acc, v)
                if op == "NAND":
                    acc = self._not(acc)
            elif op in ("OR", "NOR"):
                acc = self._not(operands[0])
                for v in operands[1:]:
                    acc = self._and(acc, self._not(v))
                if op == "OR":
                    acc = self._not(acc)
            elif op in ("XOR", "XNOR"):
                const, coeffs = operands[0]
                for c2, k2 in operands[1:]:
                    const ^= c2
                    coeffs ^= k2
                acc = (const ^ 1, coeffs) if op == "XNOR" else (const, coeffs)
            elif op == "NOT":
                acc = self._not(operands[0])
            else:  # BUF
                acc = operands[0]
            values[gate.output] = acc
        return values


class LogicalZonotopeBackend(SetBackend):
    """Affine-coset sets with exactness-tracked over-approximation."""

    name = "zono"
    exact = False

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.circuit = circuit
        self.num_latches = circuit.num_latches
        self.num_inputs = len(circuit.inputs)
        self._state_nets: Tuple[str, ...] = tuple(circuit.latches)
        self._data_nets: Tuple[str, ...] = tuple(
            latch.data for latch in circuit.latches.values()
        )
        self._state_mask = (1 << self.num_latches) - 1
        #: Lazily built affine relation for pre-image: latch forms over
        #: (state, input, residue) symbols plus the symbol count.
        self._relation: Optional[Tuple[List[_Form], int, int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_circuit(
        cls, circuit: Any, **options: Any
    ) -> "LogicalZonotopeBackend":
        # Engine-agnostic sweeps pass BDD-layer options uniformly to
        # every entry in ``ENGINES``; this backend has no tunables, so
        # all of them are ignored.
        del options
        return cls(circuit)

    def _index_of(self, point: Sequence[bool]) -> int:
        if len(point) != self.num_latches:
            raise CircuitError(
                "state width %d does not match %d latches"
                % (len(point), self.num_latches)
            )
        index = 0
        for i, bit in enumerate(point):
            if bit:
                index |= 1 << i
        return index

    def initial(
        self, initial_points: Optional[Sequence[Sequence[bool]]] = None
    ) -> Zonotope:
        if initial_points is None:
            points: List[Sequence[bool]] = [self.circuit.initial_state]
        else:
            points = list(initial_points)
            if not points:
                raise CircuitError("initial state set must be non-empty")
        return self.from_points(points)

    def from_points(self, points: Iterable[Sequence[bool]]) -> Zonotope:
        # Built as one affine hull (not a fold of pairwise unions): the
        # exact flag is a one-way ratchet, so an intermediate non-coset
        # prefix would flag a final point set that *is* a coset.  The
        # hull is exact iff its cardinality matches the distinct points.
        indices: List[int] = []
        seen = set()
        for point in points:
            index = self._index_of(point)
            if index not in seen:
                seen.add(index)
                indices.append(index)
        if not indices:
            return Zonotope.empty_set(self.num_latches)
        center = indices[0]
        basis = rref(index ^ center for index in indices[1:])
        exact = (1 << len(basis)) == len(indices)
        return Zonotope.make(self.num_latches, center, basis, exact)

    def empty(self) -> Zonotope:
        return Zonotope.empty_set(self.num_latches)

    def universe(self) -> Zonotope:
        gens = tuple(
            1 << i for i in reversed(range(self.num_latches))
        )
        return Zonotope(self.num_latches, 0, gens)

    # ------------------------------------------------------------------
    # Transformers
    # ------------------------------------------------------------------

    def image(self, s: Zonotope) -> Zonotope:
        if s.is_empty:
            return Zonotope.empty_set(self.num_latches, s.exact)
        k0 = s.rank
        values: Dict[str, _Form] = {}
        for i, net in enumerate(self._state_nets):
            coeffs = 0
            for j, gen in enumerate(s.gens):
                if gen >> i & 1:
                    coeffs |= 1 << j
            values[net] = (s.center >> i & 1, coeffs)
        for j, net in enumerate(self.circuit.inputs):
            values[net] = (0, 1 << (k0 + j))
        evaluator = _FormEvaluator(self.circuit, k0 + self.num_inputs)
        evaluator.evaluate(values)
        forms = [values[net] for net in self._data_nets]
        center = 0
        for i, (const, _) in enumerate(forms):
            if const:
                center |= 1 << i
        columns = []
        residue_survives = False
        first_residue = k0 + self.num_inputs
        for symbol in range(evaluator.next_symbol):
            column = 0
            for i, (_, coeffs) in enumerate(forms):
                if coeffs >> symbol & 1:
                    column |= 1 << i
            if column:
                columns.append(column)
                if symbol >= first_residue:
                    residue_survives = True
        return Zonotope.make(
            self.num_latches,
            center,
            columns,
            exact=s.exact and not residue_survives,
        )

    def pre_image(self, t: Zonotope) -> Zonotope:
        if t.is_empty:
            return Zonotope.empty_set(self.num_latches, t.exact)
        forms, symbols, residues = self._relation_forms()
        kt = t.rank
        equations = []
        for i, (const, coeffs) in enumerate(forms):
            mask = coeffs
            for h, gen in enumerate(t.gens):
                if gen >> i & 1:
                    mask |= 1 << (symbols + h)
            rhs = const ^ (t.center >> i & 1)
            equations.append((mask, rhs))
        solution = solve_affine(equations, symbols + kt)
        relation_exact = residues == 0
        if solution is None:
            # The (super-)relation reaches nothing in the (super-)target,
            # so the true pre-image is empty too — exact by emptiness.
            return Zonotope.empty_set(self.num_latches, t.exact)
        particular, null_basis = solution
        center = particular & self._state_mask
        gens = [
            vector & self._state_mask
            for vector in null_basis
            if vector & self._state_mask
        ]
        return Zonotope.make(
            self.num_latches,
            center,
            gens,
            exact=t.exact and relation_exact,
        )

    def _relation_forms(self) -> Tuple[List[_Form], int, int]:
        """Affine next-state forms over free (state, input) symbols.

        Returns ``(latch forms, total symbol count, residue count)``;
        cached — the relation does not depend on the argument set.
        """
        if self._relation is not None:
            return self._relation
        n, m = self.num_latches, self.num_inputs
        values: Dict[str, _Form] = {}
        for i, net in enumerate(self._state_nets):
            values[net] = (0, 1 << i)
        for j, net in enumerate(self.circuit.inputs):
            values[net] = (0, 1 << (n + j))
        evaluator = _FormEvaluator(self.circuit, n + m)
        evaluator.evaluate(values)
        forms = [values[net] for net in self._data_nets]
        self._relation = (
            forms,
            evaluator.next_symbol,
            evaluator.next_symbol - n - m,
        )
        return self._relation

    def union(self, a: Zonotope, b: Zonotope) -> Zonotope:
        if a.is_empty:
            return Zonotope(
                b.width, b.center, b.gens, b.exact and a.exact, b.is_empty
            )
        if b.is_empty:
            return Zonotope(
                a.width, a.center, a.gens, a.exact and b.exact, a.is_empty
            )
        delta = a.center ^ b.center
        hull = rref(a.gens + b.gens + (delta,))
        joint = rref(a.gens + b.gens)
        if in_span(delta, joint):
            intersection = 1 << (a.rank + b.rank - len(joint))
        else:
            intersection = 0
        union_cardinality = (1 << a.rank) + (1 << b.rank) - intersection
        hull_exact = (1 << len(hull)) == union_cardinality
        return Zonotope.make(
            self.num_latches,
            a.center,
            hull,
            exact=a.exact and b.exact and hull_exact,
        )

    # ------------------------------------------------------------------
    # Tests and statistics
    # ------------------------------------------------------------------

    def equal(self, a: Zonotope, b: Zonotope) -> bool:
        return a.same_set(b)

    def contains(self, s: Zonotope, point: Sequence[bool]) -> bool:
        if s.is_empty:
            return False
        residual = reduce_by(
            self._index_of(point) ^ s.center, _basis_map(s.gens)
        )
        return residual == 0

    def count(self, s: Zonotope) -> int:
        return 0 if s.is_empty else 1 << s.rank

    def size(self, s: Zonotope) -> int:
        # Representation size: center plus generator rows.
        return 0 if s.is_empty else 1 + s.rank

    def enumerate_states(
        self, s: Zonotope, limit: Optional[int] = None
    ) -> List[State]:
        if s.is_empty:
            return []
        total = self.count(s)
        if limit is not None and total > limit:
            raise ResourceLimitError(
                "memory",
                "enumeration of %d states exceeds limit %d" % (total, limit),
            )
        indices = [s.center]
        for gen in s.gens:
            indices += [index ^ gen for index in indices]
        states = [
            tuple(bool(index >> i & 1) for i in range(self.num_latches))
            for index in indices
        ]
        states.sort()
        return states

    # ------------------------------------------------------------------
    # Checkpoint serialization
    # ------------------------------------------------------------------

    def to_payload(self, s: Zonotope) -> Dict[str, Any]:
        return {
            "center": hex(s.center),
            "gens": [hex(gen) for gen in s.gens],
            "exact": s.exact,
            "empty": s.is_empty,
        }

    def from_payload(self, data: Dict[str, Any]) -> Zonotope:
        if data.get("empty"):
            return Zonotope.empty_set(self.num_latches, bool(data["exact"]))
        return Zonotope.make(
            self.num_latches,
            int(str(data["center"]), 16),
            [int(str(gen), 16) for gen in data["gens"]],
            bool(data["exact"]),
        )
