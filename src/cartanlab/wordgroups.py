"""Finitely generated matrix groups: presentations, words, balls.

Words are freely reduced sequences of signed generator letters; the
constructor refuses unreduced input, and concatenation reduces.  A word
ball holds each distinct image of a reduced word of length <= radius
with its shortest word, ties broken lexicographically on (generator
index, sign).  One breadth-first loop builds it a level at a time; only
forming a level's products and deciding which are new depend on the
arithmetic: exact images by ``@`` and a dict (which audits every hash
collision with a full comparison), float images by one stacked
``matmul`` per letter (bit for bit as ``@``) and a relative tolerance
(``FLOAT_DEDUP_TOL``; g and -g are distinct) with a merge log.  A float
level is decided as one batch: gathered tolerance tests against the
first element of each candidate's cell, then a loop of dict lookups in
candidate order, so each candidate still sees exactly the elements
inserted before it (see ``_FloatIndex``).

A ball is a prefix tree: every entry but the root (the empty word) keeps
the index of its parent entry and its last letter, and its word is the
parent's word plus that letter.  The tree is closed under prefixes
because only inserted words are expanded.  A float ball keeps its
elements as one stack; its ``entries`` (words, elements) and ``merges``
are built on first read.  ``BallResult.images(phi)`` walks the tree
once, multiplying each parent image by one generator image, so any
homomorphism is evaluated over the whole ball in O(N) products; the fold
is the one ``evaluate`` performs, so the images are bit-identical to
evaluating every word from scratch; float images come a level at a
time, one ``matmul`` per level, as one stack (``image_stack``).
``BallResult.labels(symbols)`` walks the tree the same way to give
every word's ``Word.format`` text.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .cartan import GroupDesc, GroupElement, to_float_array
from .errors import NumericalError, PreconditionError

# Two float elements a, b are one ball element iff
#     max|a - b| <= FLOAT_DEDUP_TOL * max(1, max|a|, max|b|),
# relative as in GroupElement._validate, so large entries that carry
# rounding proportional to their size still merge; a and -a never do.
FLOAT_DEDUP_TOL = 1e-8


class Word:
    """Freely reduced word: a tuple of (generator index, exponent +-1)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple((int(i), int(e)) for i, e in letters)
        for (i1, e1), (i2, e2) in zip(letters, letters[1:]):
            if i1 == i2 and e1 == -e2:
                raise PreconditionError(f"word is not freely reduced at {i1}")
        for i, e in letters:
            if e not in (1, -1):
                raise PreconditionError("letter exponents must be +-1")
            if i < 0:
                raise PreconditionError("negative generator index")
        self.letters = letters

    @classmethod
    def _trusted(cls, letters) -> "Word":
        """A word from letters already known to be reduced and well formed."""
        w = object.__new__(cls)
        w.letters = letters
        return w

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        """The reduced product: two reduced words cancel only where they
        meet."""
        a, b = self.letters, other.letters
        k, n = 0, min(len(a), len(b))
        while k < n and a[-1 - k] == (b[k][0], -b[k][1]):
            k += 1
        return Word._trusted(a[:len(a) - k] + b[k:])

    def inverse(self) -> "Word":
        return Word._trusted(tuple((i, -e) for i, e in reversed(self.letters)))

    def key(self):
        """Ordering key: length first, then lexicographic on letters."""
        return (len(self.letters), tuple((i, 0 if e == 1 else 1) for i, e in self.letters))

    def format(self, symbols) -> str:
        if not self.letters:
            return "1"
        out = []
        for i, e in self.letters:
            out.append(symbols[i] if e == 1 else symbols[i] + "^-1")
        return " ".join(out)

    def __repr__(self):
        return f"Word({self.letters!r})"


def reduce_letters(letters) -> Word:
    out = []
    for i, e in letters:
        if out and out[-1][0] == i and out[-1][1] == -e:
            out.pop()
        else:
            out.append((i, e))
    return Word(tuple(out))


def parse_word(text: str, symbols) -> Word:
    """Parse "a b^-1 a^2" over the given generator symbols."""
    index = {s: i for i, s in enumerate(symbols)}
    letters = []
    for tok in text.split():
        if tok in ("1", "e"):
            continue
        if "^" in tok:
            sym, exp = tok.split("^", 1)
            e = int(exp)
        else:
            sym, e = tok, 1
        if sym not in index:
            raise PreconditionError(f"unknown generator {sym!r}")
        sign = 1 if e > 0 else -1
        letters.extend([(index[sym], sign)] * abs(e))
    return reduce_letters(letters)


@dataclass(frozen=True)
class FreeStructure:
    kind: str = "free"


@dataclass(frozen=True)
class AmalgamStructure:
    """Amalgam data: which generators span each side, and the pairs of
    words (one per side's alphabet) presenting the common subgroup."""

    side1: tuple
    side2: tuple
    gamma0_pairs: tuple = ()
    kind: str = "amalgam"


@dataclass(frozen=True)
class HnnStructure:
    """HNN data: base generators, the stable letter, and the pairing
    word pairs (j1(c), j2(c)) in the base alphabet."""

    base: tuple
    stable: int
    pairings: tuple = ()
    kind: str = "hnn"


class Presentation:
    """Generator symbols and matrices plus combinatorial structure."""

    def __init__(self, symbols, matrices, group: GroupDesc, structure=None,
                 relators=()):
        self.symbols = tuple(symbols)
        self.group = group
        self.generators = tuple(
            m if isinstance(m, GroupElement) else GroupElement(m, group)
            for m in matrices
        )
        if len(self.generators) != len(self.symbols):
            raise PreconditionError("one matrix per generator symbol")
        self.structure = structure or FreeStructure()
        self.relators = tuple(relators)
        self._validate_structure()

    def _validate_structure(self):
        s = self.structure
        ngen = len(self.symbols)
        if isinstance(s, AmalgamStructure):
            side1, side2 = set(s.side1), set(s.side2)
            if side1 & side2 or side1 | side2 != set(range(ngen)):
                raise PreconditionError("amalgam sides must partition the generators")
        elif isinstance(s, HnnStructure):
            if s.stable in s.base:
                raise PreconditionError("stable letter cannot be a base generator")
            if set(s.base) | {s.stable} != set(range(ngen)):
                raise PreconditionError("HNN base + stable letter must cover generators")
            nu = self.generators[s.stable]
            inc = inclusion(self)
            for w1, w2 in s.pairings:
                lhs = nu @ evaluate(w1, inc) @ nu.inv()
                rhs = evaluate(w2, inc)
                if _deviation(lhs, rhs, 1e-9)[1]:
                    raise PreconditionError(
                        f"HNN pairing fails on {w1.format(self.symbols)}"
                    )

    @property
    def rank(self) -> int:
        return len(self.symbols)


class Homomorphism:
    """Generator-image assignment into a target group."""

    def __init__(self, images, group: GroupDesc):
        self.group = group
        self.images = tuple(
            m if isinstance(m, GroupElement) else GroupElement(m, group)
            for m in images
        )
        self._inverses = tuple(g.inv() for g in self.images)

    def image(self, index: int, exponent: int) -> GroupElement:
        return self.images[index] if exponent == 1 else self._inverses[index]


def inclusion(P: Presentation) -> Homomorphism:
    """The homomorphism sending each generator to its own matrix."""
    return Homomorphism(P.generators, P.group)


def conjugate_homomorphism(phi: Homomorphism, g: GroupElement) -> Homomorphism:
    gi = g.inv()
    return Homomorphism(tuple(g @ h @ gi for h in phi.images), phi.group)


def _identity_like(phi: Homomorphism) -> GroupElement:
    """Identity element in the same arithmetic as phi's images: exact
    when they all are or the field is, float otherwise."""
    n = phi.group.size
    if phi.group.field.is_exact or all(g.is_exact for g in phi.images):
        rows = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return GroupElement(rows, phi.group, check=False)
    return GroupElement(np.eye(n), phi.group, check=False)


def evaluate(w: Word, phi: Homomorphism) -> GroupElement:
    out = _identity_like(phi)
    for i, e in w:
        if i >= len(phi.images):
            raise PreconditionError(f"generator index {i} out of range")
        out = out @ phi.image(i, e)
    return out


def _deviation(a: GroupElement, b: GroupElement, tol) -> tuple:
    """(max entry deviation, whether the pair fails): exact elements fail
    unless equal, float ones unless the deviation is <= tol (so a NaN
    fails)."""
    if a.is_exact and b.is_exact:
        if a == b:
            return 0.0, False
        return max(abs(float(x - y)) for ra, rb in zip(a.matrix, b.matrix)
                   for x, y in zip(ra, rb)), True
    fa, fb = to_float_array(a), to_float_array(b)
    dev = float(np.abs(fa - fb).max())
    return dev, not dev <= tol


@dataclass
class RelatorReport:
    ok: bool
    max_deviation: float
    failures: list = dc_field(default_factory=list)


def check_relators(P: Presentation, phi: Homomorphism, tol=1e-9) -> RelatorReport:
    """Evaluate relators, amalgam pairs, and HNN pairings under phi."""
    failures = []
    max_dev = 0.0
    ident = _identity_like(phi)

    def record(name, lhs, rhs):
        nonlocal max_dev
        dev, failed = _deviation(lhs, rhs, tol)
        max_dev = max(max_dev, dev)
        if failed:
            failures.append((name, dev))

    for w in P.relators:
        record(f"relator {w.format(P.symbols)}", evaluate(w, phi), ident)
    s = P.structure
    if isinstance(s, AmalgamStructure):
        for w1, w2 in s.gamma0_pairs:
            record(
                f"amalgam pair {w1.format(P.symbols)} = {w2.format(P.symbols)}",
                evaluate(w1, phi),
                evaluate(w2, phi),
            )
    elif isinstance(s, HnnStructure):
        nu = phi.images[s.stable]
        nui = nu.inv()
        for w1, w2 in s.pairings:
            record(
                f"hnn pairing {w1.format(P.symbols)}",
                nu @ evaluate(w1, phi) @ nui,
                evaluate(w2, phi),
            )
    return RelatorReport(not failures, max_dev, failures)


@dataclass
class BallEntry:
    word: Word
    element: GroupElement
    parent: int = -1  # index of the entry for word minus its last letter
    letter: tuple | None = None  # last (generator index, sign); None at the root


class BallResult:
    """A word ball as a prefix tree over the letters ``alphabet``.

    Entry k has parent entry ``parents[k]`` and last letter
    ``alphabet[lasts[k]]`` (-1 at the root).  An exact ball keeps its
    elements; a float ball keeps one ``stack`` of them, root first, in the
    dtype its products were formed in, and builds an element only when it
    is read (the root stays ``root``, the identity as ``_identity_like``
    gives it).  ``entries`` and ``merges`` are built on first read.
    """

    def __init__(self, alphabet, parents, lasts, complete, root, elements,
                 group, merged):
        self.alphabet = alphabet
        self.parents, self.lasts = parents, lasts
        self.complete = complete
        self.root = root
        self.stack = elements if isinstance(elements, np.ndarray) else None
        self._elements = elements
        self._group = group
        # (parent entry, letter index, entry it merged into) of each merged word
        self._merged = merged

    def __len__(self):
        return len(self.parents)

    @property
    def merge_count(self) -> int:
        return len(self._merged)

    @cached_property
    def _words(self) -> list:
        out, alphabet = [Word._trusted(())], self.alphabet
        for p, l in zip(self.parents[1:], self.lasts[1:]):
            out.append(Word._trusted(out[p].letters + (alphabet[l],)))
        return out

    @cached_property
    def _element_list(self) -> list:
        if self.stack is None:
            return self._elements
        group = self._group
        return [self.root] + [GroupElement(m, group, check=False)
                              for m in self.stack[1:]]

    @cached_property
    def entries(self) -> list:
        letters = [None] + [self.alphabet[l] for l in self.lasts[1:]]
        return [BallEntry(*e) for e in zip(self._words, self._element_list,
                                           self.parents, letters)]

    @cached_property
    def merges(self) -> list:
        """(merged word, word it merged into) of every tolerance merge."""
        words, alphabet = self._words, self.alphabet
        return [(Word._trusted(words[p].letters + (alphabet[l],)), words[h])
                for p, l, h in self._merged]

    def elements(self):
        return list(self._element_list)

    def lengths(self) -> list:
        """The length of every ball word, in entry order."""
        out = [0]
        for p in self.parents[1:]:
            out.append(out[p] + 1)
        return out

    def images(self, phi: Homomorphism) -> list:
        """phi's image of every ball word, in entry order, by one pass over
        the prefix tree (float: the rows of ``image_stack``); equal bit for
        bit to ``evaluate``."""
        stack, out = self.image_stack(phi), [_identity_like(phi)]
        if stack is not None:
            return out + [GroupElement(m, phi.group, check=False) for m in stack[1:]]
        for p, l in zip(self.parents[1:], self.lasts[1:]):
            out.append(out[p] @ phi.image(*self.alphabet[l]))
        return out

    def image_stack(self, phi: Homomorphism):
        """phi's float image of every ball word as one (len, n, n) stack,
        None when ``evaluate`` computes phi exactly.  A level is one
        ``matmul`` of its parents' images by its letters' images, the
        products ``evaluate`` forms, bit for bit; a homomorphism mixing
        real and complex images is computed in complex, as a float ball is."""
        if any(i >= len(phi.images) for i, _ in self.alphabet):
            raise PreconditionError(f"generator index {len(phi.images)} out of range")
        if _identity_like(phi).is_exact:
            return None
        letters = np.array([to_float_array(phi.image(*a)) for a in self.alphabet])
        parents, lasts = np.array(self.parents), np.array(self.lasts)
        out = np.empty((len(self),) + letters.shape[1:], letters.dtype)
        out[0] = np.eye(phi.group.size)
        # parents never decrease, so a level is a run: the children of [lo, hi)
        lo, hi = 1, int(np.searchsorted(parents, 1))
        while lo < hi:
            out[lo:hi] = np.matmul(out[parents[lo:hi]], letters[lasts[lo:hi]])
            lo, hi = hi, int(np.searchsorted(parents, hi))
        return out

    def labels(self, symbols) -> list:
        """``Word.format(symbols)`` of every ball word, in entry order, by
        one pass over the prefix tree: each label is its parent's label
        plus its last letter."""
        names = [symbols[i] if e == 1 else symbols[i] + "^-1"
                 for i, e in self.alphabet]
        out = ["1"]
        for p, l in zip(self.parents[1:], self.lasts[1:]):
            name = names[l]
            out.append(out[p] + " " + name if p else name)
        return out

    def word_index(self) -> dict:
        """{word: entry index} of every ball word."""
        return {w: k for k, w in enumerate(self._words)}

    def require_complete(self) -> "BallResult":
        """The ball itself; PreconditionError if max_elements cut it short."""
        if not self.complete:
            raise PreconditionError(
                f"word ball truncated at {len(self)} elements "
                "before reaching the requested radius"
            )
        return self


# The float ball's tolerance index.  An element of scale
# s = max(1, max|a|) in [2**(e-1), 2**e) is filed in bucket e under the
# cells of its real coordinates (real and imaginary parts for complex
# entries) on the grid of width 2**(e - _GRID_BITS), shifted by a third of
# a cell so that entries with few bits below the cell width (integers,
# short dyadics) sit well inside a cell rather than on an edge.  No pair
# within tolerance is missed, because
#  * |s_a - s_b| <= max|a - b| <= tol max(s_a, s_b): b lies in bucket
#    e + 1 only if s_a >= 2**e (1 - tol), and in bucket e - 1 only if
#    s_a < 2**(e-1) (1 + 2 tol); a candidate within 2 tol of a bucket
#    boundary also probes the neighbouring bucket;
#  * in a probed bucket f >= e - 1 each coordinate of b is within
#    tol 2**max(e, f) <= 2 tol 2**f of a's, which is _REACH cells; so a
#    coordinate closer than 1/2 - 2 _REACH to its cell centre has b's in
#    the same cell, and one nearer an edge has it in the same cell or the
#    neighbour on that side, and every combination of those is probed
#    (the factor 2 leaves room for the rounding of the shift).
# Most candidates probe their own cell only.  One with more than
# _MAX_EDGES coordinates near an edge is compared with every element
# rather than with 2**k cells.
#
# A candidate is the first element within tolerance in probe order (own
# cell first, then its neighbours), or, past _MAX_EDGES, in insertion
# order.  A level is decided as one batch.  One gathered comparison tests
# each candidate against the first element of an earlier level filed in
# its own cell; a second tests each candidate whose cell no earlier level
# holds against the level's first candidate with the same key.  The probe
# keys of all the level's near-edge candidates are built at once.  A loop
# then walks the candidates in order with dict lookups and appends only,
# so a candidate still sees exactly the elements inserted before it: its
# answer is the first element of its cell whenever that is the element
# the batch tested and the test passed.  The rare rest is probed one at a
# time: a failed test inside a cell, a cell whose first element is
# another candidate than the one tested, and a candidate past _MAX_EDGES.
_GRID_BITS = 16
_REACH = 2 * FLOAT_DEDUP_TOL * 2.0 ** _GRID_BITS
_NEAR_EDGE = 0.5 - 2 * _REACH
_MAX_EDGES = 8


def _real_coords(flat):
    return flat.view(np.float64) if np.iscomplexobj(flat) else flat


def _grid(coords, e):
    """Shifted grid coordinates of coords in bucket(s) e; multiplying by
    the power of two 2**(_GRID_BITS - e) is exact."""
    return np.ldexp(coords, _GRID_BITS - e) - 1 / 3


def _buckets(scale):
    """Bucket e of scale (array or number), and whether scale is within
    2 tol of the bucket above and of the bucket below."""
    e = np.frexp(scale)[1]
    up = scale >= np.ldexp(1 - 2 * FLOAT_DEDUP_TOL, e)
    down = (e > 1) & (scale < np.ldexp(1 + 2 * FLOAT_DEDUP_TOL, e - 1))
    return e, up, down


def _cell_keys(e, cells):
    """One bytes key per row of (bucket, cells)."""
    K = np.column_stack([e, cells]).astype(np.int64)
    return K.view(np.dtype((np.void, 8 * K.shape[1]))).ravel().tolist()


def _within(a, sa, b, sb):
    """Whether each row of a is within tolerance of the same row of b
    (sa, sb their scales)."""
    return np.abs(a - b).max(axis=1) <= FLOAT_DEDUP_TOL * np.maximum(sa, sb)


def _level_keys(flat):
    """For the rows of flat (one candidate each): scales, own-cell keys,
    and whether the row needs more probes than its own cell."""
    scale = np.maximum(1.0, np.abs(flat).max(axis=1))
    e, up, down = _buckets(scale)
    q = _grid(_real_coords(flat), e[:, None])
    cells = np.rint(q)
    more = (np.abs(q - cells) > _NEAR_EDGE).any(axis=1) | up | down
    return scale, _cell_keys(e, cells), more


def _probes(flat, scale):
    """For each row of flat (scale its scales): the keys of every cell
    that may hold an element within tolerance of it, in probe order, or
    None if there are too many to list."""
    e, up, down = _buckets(scale)
    # one probe row per probed bucket: own (e), above (e + 1), below (e - 1)
    row, side = np.nonzero(np.column_stack([np.ones_like(up), up, down]))
    f = e[row] + np.array([0, 1, -1])[side]
    q = _grid(_real_coords(flat)[row], f[:, None])
    cells = np.rint(q)
    near = np.abs(q - cells) > _NEAR_EDGE
    edges = near.sum(axis=1)
    listed = np.ones(len(flat), bool)
    listed[row[edges > _MAX_EDGES]] = False
    keep = listed[row]
    row, f, q, cells, near, edges = (x[keep] for x in (row, f, q, cells, near, edges))
    # combination c of a probe row moves its j-th near coordinate to the
    # neighbour cell on its side where bit j of c is set
    count = 1 << edges
    probe = np.repeat(np.arange(len(edges)), count)
    c = np.arange(len(probe)) - np.repeat(np.cumsum(count) - count, count)
    bit = np.maximum(np.cumsum(near, axis=1) - 1, 0)
    moved = near[probe] & ((c[:, None] >> bit[probe]) & 1).astype(bool)
    keys = _cell_keys(f[probe], cells[probe] + moved * np.sign(q - cells)[probe])
    out, start = [], 0
    for k, n in zip(listed.tolist(), np.bincount(row[probe], minlength=len(flat)).tolist()):
        out.append(keys[start:start + n] if k else None)
        start += n
    return out


class _FloatIndex:
    """The elements of a float ball, found again by tolerance, a level at
    a time."""

    def __init__(self, width, dtype):
        self.cells = {}  # key -> indices of the elements filed under it
        self.rows = np.empty((0, width), dtype)  # flattened, in insertion order
        self.scales = np.empty(0)
        self._pending = None  # (rows, scales, inserted rows) of the level

    def resolve(self, flat, room):
        """Decide the rows of flat (one candidate each) in order, inserting
        each that no element is within tolerance of, until room are
        inserted: (hits, new), hits[j] -1 where row j is inserted and the
        index of its element otherwise, new the inserted rows."""
        scale, keys, more = _level_keys(flat)
        cells, n, m = self.cells, len(self.rows), len(flat)
        # per row: the level's first row with its key, and the first element
        # an earlier level filed under it (-1 if none)
        lead = {}
        first = [lead.setdefault(k, j) for j, k in enumerate(keys)]
        old = [c[0] if c else -1 for c in map(cells.get, keys)]
        # the two gathered comparisons: with that element, else with that row
        ok = np.zeros(m, bool)
        o, f = np.array(old), np.array(first)
        a = np.flatnonzero(o >= 0)
        ok[a] = _within(flat[a], scale[a], self.rows[o[a]], self.scales[o[a]])
        b = np.flatnonzero((o < 0) & (f < np.arange(m)))
        ok[b] = _within(flat[b], scale[b], flat[f[b]], scale[f[b]])
        near = np.flatnonzero(more)
        probes = dict(zip(near.tolist(), _probes(flat[near], scale[near])))
        for j, p in probes.items():
            ok[j] &= p is not None  # past _MAX_EDGES: a scan in insertion order
        ok, more = ok.tolist(), more.tolist()
        hits, new, slot = [], [], [-1] * m  # slot: element index of an inserted row
        self._pending = (flat, scale.tolist(), new)
        for j, key in enumerate(keys):
            cell = cells.get(key)
            if cell is not None and ok[j] and cell[0] == (
                    old[j] if old[j] >= 0 else slot[first[j]]):
                hits.append(cell[0])
                continue
            if cell is None and not more[j]:
                h = None
            else:
                h = self._find(j, probes[j] if more[j] else (key,))
            if h is not None:
                hits.append(h)
                continue
            slot[j] = n + len(new)
            new.append(j)
            if cell is None:
                cells[key] = [slot[j]]
            else:
                cell.append(slot[j])
            hits.append(-1)
            if len(new) == room:
                break
        self.rows = np.concatenate([self.rows, flat[new]])
        self.scales = np.concatenate([self.scales, scale[new]])
        self._pending = None
        return hits, new

    def _element(self, h):
        """Row and scale of element h, of an earlier level or this one."""
        k = h - len(self.rows)
        if k < 0:
            return self.rows[h], self.scales[h]
        flat, scales, new = self._pending
        return flat[new[k]], scales[new[k]]

    def _find(self, j, keys):
        """Index of the first element filed under keys within tolerance of
        the level's row j; with keys None, of all elements."""
        flat, scales, new = self._pending
        row, scale = flat[j], scales[j]
        if keys is None:
            dev = np.abs(np.concatenate([self.rows, flat[new]]) - row).max(axis=1)
            bound = np.maximum(np.concatenate([self.scales, [scales[c] for c in new]]),
                               scale)
            hit = np.flatnonzero(dev <= FLOAT_DEDUP_TOL * bound)
            return int(hit[0]) if len(hit) else None
        for key in keys:
            for h in self.cells.get(key, ()):
                other, s = self._element(h)
                if np.abs(row - other).max() <= FLOAT_DEDUP_TOL * max(scale, s):
                    return h
        return None


class _ExactLevels:
    """Exact candidates: a level's products by ``@``, found again by
    hashing."""

    logs_merges = False  # a repeat is the same element, not a merge

    def __init__(self, phi, letters, root):
        self.gens = [phi.image(i, e) for i, e in letters]
        self.seen = {}  # element -> entry index
        self.kept = []  # the inserted elements, in entry order
        self.cand, self.lets = [root], [-1]

    def resolve(self, room):
        hits, self.new, seen = [], [], self.seen
        for g, l in zip(self.cand, self.lets):
            n = len(seen)
            h = seen.setdefault(g, n)
            if h < n:
                hits.append(h)
                continue
            hits.append(-1)
            self.kept.append(g)
            self.new.append((g, l))
            if len(self.new) == room:
                break
        return hits

    def products(self):
        level, self.lets, self.cand = [], [], []
        for t, (g, last) in enumerate(self.new):
            for l, h in enumerate(self.gens):
                if l != last ^ 1:
                    level.append((t, l))
                    self.lets.append(l)
                    self.cand.append(g @ h)
        return level


class _FloatLevels:
    """Float candidates: a level's products by one stacked ``matmul`` per
    letter, bit for bit as ``@`` forms each (a homomorphism mixing real and
    complex images is computed in complex throughout); a candidate is its
    row in the level, decided by ``_FloatIndex``, whose rows are the
    ball's element stack."""

    logs_merges = True

    def __init__(self, phi, letters, root):
        gens = [to_float_array(phi.image(i, e)) for i, e in letters]
        self.dtype = np.result_type(*gens)
        self.gens = [g.astype(self.dtype, copy=False) for g in gens]
        self.size = phi.group.size
        self.index = _FloatIndex(self.size ** 2, self.dtype)
        self._level(to_float_array(root)[None], np.array([-1]))

    def _level(self, cand, lets):
        """Make cand (stacked matrices with last letters lets) the level."""
        flat = cand.reshape(len(cand), -1).astype(self.dtype, copy=False)
        if not np.isfinite(flat).all():
            raise NumericalError("a word ball element is not finite (overflow)")
        self.cand, self.flat, self.lets = cand, flat, lets

    def resolve(self, room):
        hits, self.new = self.index.resolve(self.flat, room)
        return hits

    def products(self):
        level, last = self.cand[self.new], self.lets[self.new]
        with np.errstate(over="ignore", invalid="ignore"):  # refused in _level
            prods = np.stack([level @ g for g in self.gens], axis=1)
        k = len(self.gens)
        keep = np.flatnonzero((np.arange(k) != (last ^ 1)[:, None]).reshape(-1))
        self._level(prods.reshape(-1, *level.shape[1:])[keep], keep % k)
        return list(zip((keep // k).tolist(), self.lets.tolist()))

    @property
    def kept(self):
        return self.index.rows.reshape(-1, self.size, self.size)


def word_ball(
    P: Presentation,
    phi: Homomorphism,
    radius: int,
    max_elements: int = 2_000_000,
) -> BallResult:
    """All distinct images of freely reduced words of length <= radius.

    BFS one level at a time; a level's candidates come in (frontier entry,
    letter) order, letters lexicographic in (generator index, sign), so
    the stored shortest representatives are deterministic.  Exact images
    are deduplicated exactly.  Float images are one element iff
    ``max|a - b| <= FLOAT_DEDUP_TOL * max(1, max|a|, max|b|)``; g and -g
    are distinct, and every merged word is logged in ``merges`` with the
    word it merged into.  Exceeding ``max_elements`` returns the partial
    ball flagged incomplete.
    """
    if radius < 0:
        raise PreconditionError("radius must be >= 0")
    letters = [(i, e) for i in range(P.rank) for e in (1, -1)]
    root = _identity_like(phi)
    levels = (_ExactLevels if all(g.is_exact for g in phi.images)
              else _FloatLevels)(phi, letters, root)
    parents, lasts, merged = [], [], []
    # a level's candidate (t, l) is the product of frontier entry t by
    # letter l; the root is level 0's one candidate, with no parent and no
    # letter (-1).  Letters 2i and 2i + 1 are inverse: l ^ 1 is the letter
    # cancelling l.  A hit is -1 for a new element, else its entry index.
    frontier, level = [-1], [(0, -1)]
    for depth in range(radius + 1):
        start = len(parents)
        for (t, l), h in zip(level, levels.resolve(max_elements + 1 - start)):
            if h < 0:
                parents.append(frontier[t])
                lasts.append(l)
            elif levels.logs_merges:
                merged.append((frontier[t], l, h))
        frontier = range(start, len(parents))
        if len(parents) > max_elements or depth == radius or not frontier:
            break  # not frontier: a finite group
        level = levels.products()
    return BallResult(letters, parents, lasts, len(parents) <= max_elements,
                      root, levels.kept, phi.group, merged)
