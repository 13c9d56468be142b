"""Finitely generated matrix groups: presentations, words, balls.

Words are freely reduced sequences of signed generator letters; the
constructor refuses unreduced input, and concatenation reduces.  A word
ball holds each distinct image of a reduced word of length <= radius
with its shortest word, ties broken lexicographically on (generator
index, sign).  One breadth-first loop builds it a level at a time; only
forming a level's products and finding a product again depend on the
arithmetic: exact images by ``@`` and a dict (which audits every hash
collision with a full comparison), float images by one stacked
``matmul`` per letter (bit for bit as ``@``) and a relative tolerance
(``FLOAT_DEDUP_TOL``; g and -g are distinct) with a merge log.

A ball is a prefix tree: every entry but the root (the empty word) keeps
the index of its parent entry and its last letter, and its word is the
parent's word plus that letter.  The tree is closed under prefixes
because only inserted words are expanded.  ``BallResult.images(phi)``
walks it once, multiplying each parent image by one generator image, so
any homomorphism is evaluated over the whole ball in O(N) products; the
fold is the one ``evaluate`` performs, so the images are bit-identical
to evaluating every word from scratch.  ``BallResult.labels(symbols)``
walks it the same way to give every word's ``Word.format`` text.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

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
        return Word(tuple((i, -e) for i, e in reversed(self.letters)))

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


@dataclass
class BallResult:
    entries: list
    complete: bool
    merges: list = dc_field(default_factory=list)

    def __len__(self):
        return len(self.entries)

    def elements(self):
        return [e.element for e in self.entries]

    def images(self, phi: Homomorphism) -> list:
        """phi's image of every ball word, in entry order, by one pass
        over the prefix tree; equal bit for bit to ``evaluate``."""
        out = [_identity_like(phi)]
        for e in self.entries[1:]:
            if e.letter[0] >= len(phi.images):
                raise PreconditionError(f"generator index {e.letter[0]} out of range")
            out.append(out[e.parent] @ phi.image(*e.letter))
        return out

    def labels(self, symbols) -> list:
        """``Word.format(symbols)`` of every ball word, in entry order, by
        one pass over the prefix tree: each label is its parent's label
        plus its last letter."""
        names = {(i, e): s if e == 1 else s + "^-1"
                 for i, s in enumerate(symbols) for e in (1, -1)}
        out = ["1"]
        for e in self.entries[1:]:
            name = names[e.letter]
            out.append(out[e.parent] + " " + name if e.parent else name)
        return out

    def word_index(self) -> dict:
        """{word: entry index} of every ball word."""
        return {e.word: k for k, e in enumerate(self.entries)}

    def require_complete(self) -> "BallResult":
        """The ball itself; PreconditionError if max_elements cut it short."""
        if not self.complete:
            raise PreconditionError(
                f"word ball truncated at {len(self.entries)} elements "
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


class _FloatIndex:
    """The elements of a float ball, found again by tolerance."""

    def __init__(self):
        self.cells = {}  # key -> indices of the elements filed under it
        self.rows = []  # flattened elements, in insertion order
        self.scales = []

    @staticmethod
    def level(flat):
        """For the rows of flat (one candidate each): scales, own-cell
        keys, and whether the row needs more probes than its own cell."""
        scale = np.maximum(1.0, np.abs(flat).max(axis=1))
        e, up, down = _buckets(scale)
        q = _grid(_real_coords(flat), e[:, None])
        cells = np.rint(q)
        more = (np.abs(q - cells) > _NEAR_EDGE).any(axis=1) | up | down
        return scale.tolist(), _cell_keys(e, cells), more.tolist()

    @staticmethod
    def probes(row, scale):
        """Keys of every cell that may hold an element within tolerance
        of row, or None if there are too many to list."""
        e, up, down = _buckets(scale)
        keys = []
        coords = _real_coords(row)
        for f, on in ((e, True), (e + 1, up), (e - 1, down)):
            if not on:
                continue
            q = _grid(coords, f)
            cells = np.rint(q)
            near = np.flatnonzero(np.abs(q - cells) > _NEAR_EDGE)
            if len(near) > _MAX_EDGES:
                return None
            # row m of choice picks the neighbour cell where bit j of m is set
            choice = (np.arange(2 ** len(near))[:, None] >> np.arange(len(near))) & 1
            cand = np.repeat(cells[None], len(choice), axis=0)
            cand[:, near] += choice * np.sign(q[near] - cells[near])
            keys += _cell_keys(np.full(len(cand), f), cand)
        return keys

    def find(self, row, scale, keys):
        """Index of an element filed under keys within tolerance of row."""
        for key in keys:
            for h in self.cells.get(key, ()):
                if np.abs(row - self.rows[h]).max() <= FLOAT_DEDUP_TOL * max(
                        scale, self.scales[h]):
                    return h
        return None

    def match(self, row, scale, key, more):
        """Index of an element within tolerance of row, or None; key and
        more are row's entries from ``level``."""
        if not more:
            return self.find(row, scale, (key,))
        probes = self.probes(row, scale)
        if probes is None:
            return self.scan(row, scale)
        return self.find(row, scale, probes)

    def scan(self, row, scale):
        """Index of the first element within tolerance of row, by
        comparing it with all of them."""
        dev = np.abs(np.stack(self.rows) - row).max(axis=1)
        hit = np.flatnonzero(dev <= FLOAT_DEDUP_TOL * np.maximum(self.scales, scale))
        return int(hit[0]) if len(hit) else None

    def add(self, key, row, scale):
        self.cells.setdefault(key, []).append(len(self.rows))
        self.rows.append(row)
        self.scales.append(scale)


class _ExactLevels:
    """Exact candidates: each product formed by ``@`` when the BFS reaches
    it, found again by hashing."""

    logs_merges = False  # a repeat is the same element, not a merge

    def __init__(self, phi, letters, root):
        self.gens = [phi.image(i, e) for i, e in letters]
        self.seen = {}  # element -> entry index
        self.find = self.seen.get
        self.root = root
        self.kept = []  # (element, letter index) of the level's new entries

    def products(self):
        level, self.kept = self.kept, []
        return ((t, l, g @ h) for t, (g, last) in enumerate(level)
                for l, h in enumerate(self.gens) if l != last ^ 1)

    def add(self, g, l):
        self.seen[g] = len(self.seen)
        self.kept.append((g, l))
        return g


class _FloatLevels:
    """Float candidates: a level's products by one stacked ``matmul`` per
    letter, bit for bit as ``@`` forms each (a homomorphism mixing real and
    complex images is computed in complex throughout); a candidate is its
    row in the level, found again by ``_FloatIndex``."""

    logs_merges = True

    def __init__(self, phi, letters, root):
        gens = [to_float_array(phi.image(i, e)) for i, e in letters]
        self.dtype = np.result_type(*gens)
        self.gens = [g.astype(self.dtype, copy=False) for g in gens]
        self.group, self.index, self.root = phi.group, _FloatIndex(), 0
        self._level(to_float_array(root)[None], np.array([-1]))

    def _level(self, cand, lets):
        """Make cand (stacked matrices with last letters lets) the level."""
        flat = cand.reshape(len(cand), -1).astype(self.dtype, copy=False)
        if not np.isfinite(flat).all():
            raise NumericalError("a word ball element is not finite (overflow)")
        self.cand, self.flat, self.lets, self.kept = cand, flat, lets, []
        self.scales, self.keys, self.more = self.index.level(flat)

    def products(self):
        level, last = self.cand[self.kept], self.lets[self.kept]
        with np.errstate(over="ignore", invalid="ignore"):  # refused in _level
            prods = np.stack([level @ g for g in self.gens], axis=1)
        k = len(self.gens)
        keep = np.flatnonzero((np.arange(k) != (last ^ 1)[:, None]).reshape(-1))
        self._level(prods.reshape(-1, *level.shape[1:])[keep], keep % k)
        return zip((keep // k).tolist(), self.lets.tolist(), range(len(keep)))

    def find(self, j):
        return self.index.match(self.flat[j], self.scales[j], self.keys[j],
                                self.more[j])

    def add(self, j, _l):
        self.index.add(self.keys[j], self.flat[j], self.scales[j])
        self.kept.append(j)
        return GroupElement(self.cand[j], self.group, check=False)


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
    images = (_ExactLevels if all(g.is_exact for g in phi.images)
              else _FloatLevels)(phi, letters, _identity_like(phi))
    entries, merges = [], []
    # a candidate (t, l, c) is the product c of frontier entry t by letter
    # l; the root is level 0's one candidate, with no parent and no letter.
    # Letters 2i and 2i + 1 are inverse: l ^ 1 is the letter cancelling l.
    frontier, level = [-1], [(0, -1, images.root)]
    for depth in range(radius + 1):
        start = len(entries)
        for t, l, c in level:
            parent, letter = frontier[t], letters[l] if depth else None
            word = Word._trusted(
                entries[parent].word.letters + (letter,) if depth else ())
            hit = images.find(c)
            if hit is None:
                entries.append(BallEntry(word, images.add(c, l), parent, letter))
                if len(entries) > max_elements:
                    return BallResult(entries, complete=False, merges=merges)
            elif images.logs_merges:
                merges.append((word, entries[hit].word))
        frontier = range(start, len(entries))
        if depth == radius or not frontier:  # not frontier: a finite group
            break
        level = images.products()
    return BallResult(entries, complete=True, merges=merges)
