"""Finitely generated matrix groups: presentations, words, balls.

Words are freely reduced sequences of signed generator letters; the
constructor refuses unreduced input, and concatenation reduces.  A word
ball holds each distinct image of a reduced word of length <= radius
with its shortest word, ties broken lexicographically on (generator
index, sign).  One breadth-first loop builds it a level at a time; only
forming a level's products and deciding which are new depend on the
arithmetic: exact images by ``exact.stack_products`` on their stored
(N, d), over Q(sqrt r) too, and a dict (which audits every hash
collision with a full comparison), float images by one gathered
``matmul`` (bit for bit as ``@``) and a relative tolerance
(``FLOAT_DEDUP_TOL``; g and -g are distinct) with a merge log.
Each float element has one key, a weighted sum of its coordinates, and every
element within tolerance of a candidate has its key in a window about
the candidate's (see ``_FloatIndex``).  A float level is decided as one
batch: a sorted-key search of each candidate's window among the earlier
elements and among the level's rows, gathered tolerance tests where a
window holds at most one of each, then a loop in candidate order, so
each candidate still sees exactly the elements inserted before it and
merges into the first of them within tolerance.

A ball is a prefix tree: every entry but the root (the empty word) keeps
the index of its parent entry and its last letter, and its word is the
parent's word plus that letter.  The tree is closed under prefixes
because only inserted words are expanded.  A float ball keeps its
elements as one stack; its ``entries`` (words, elements) and ``merges``
are built on first read.

Each arithmetic has one level kernel (``_ExactLevels``, ``_FloatLevels``)
whose ``products(items, t, l)`` multiplies item t[i] of a level by letter
l[i].  The BFS forms every level with it, and so does ``BallResult._walk``,
the one walk of a built tree, for every word's image under any
homomorphism (``images``, ``image_stack``): O(N) products, the fold
``evaluate`` performs, so bit-identical to evaluating each word from
scratch.  ``labels`` follows the parent links entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .cartan import GroupDesc, GroupElement, to_float_array
from .errors import NumericalError, PreconditionError
from .exact import stack_products

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


MAX_WORD_LETTERS = 10 ** 5


def parse_word(text: str, symbols) -> Word:
    """Parse "a b^-1 a^2" over the given generator symbols.  A word with a
    non-integer exponent, or of more than ``MAX_WORD_LETTERS`` letters
    before free reduction (``a^k`` is k letters), is refused unformed."""
    index = {s: i for i, s in enumerate(symbols)}
    letters, shown = [], text if len(text) <= 60 else text[:57] + "..."
    for tok in text.split():
        if tok in ("1", "e"):
            continue
        sym, caret, exp = tok.partition("^")
        try:
            e = int(exp) if caret else 1
        except ValueError:
            raise PreconditionError(
                f"word {shown!r} has a non-integer exponent {exp!r}") from None
        if sym not in index:
            raise PreconditionError(f"unknown generator {sym!r}")
        if len(letters) + abs(e) > MAX_WORD_LETTERS:
            raise PreconditionError(
                f"word {shown!r} has more than {MAX_WORD_LETTERS} letters")
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
        if not self.symbols:  # a word ball needs a letter to stack
            raise PreconditionError("a presentation needs at least one generator")
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
    elements; a float ball keeps one stack of them, root first, in the
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

    def _walk(self, levels) -> list:
        """The items of every level of the tree, root first, under the
        homomorphism of the kernel ``levels``: a level's items are its
        parents' items times its letters, by ``levels.products``."""
        parents, lasts = np.array(self.parents), np.array(self.lasts)
        out, start, lo = [levels.root], 0, 1
        while lo < len(parents):  # parents never decrease: a level is a run
            hi = int(np.searchsorted(parents, lo))  # the children of [start, lo)
            out.append(levels.products(out[-1], parents[lo:hi] - start, lasts[lo:hi]))
            start, lo = lo, hi
        return out

    def images(self, phi: Homomorphism) -> list:
        """phi's image of every ball word, in entry order, a level at a time
        (float: the rows of ``image_stack``; exact: ``stack_products``);
        equal bit for bit to ``evaluate``."""
        stack, root = self.image_stack(phi), _identity_like(phi)
        if stack is not None:
            return [root] + [GroupElement(m, phi.group, check=False) for m in stack[1:]]
        levels = _ExactLevels(phi, self.alphabet, root)
        return [root] + [levels.element(k) for run in self._walk(levels)[1:] for k in run]

    def image_stack(self, phi: Homomorphism):
        """phi's float image of every ball word as one (len, n, n) stack,
        None when ``evaluate`` computes phi exactly.  A level is one
        ``matmul`` of its parents' images by its letters' images, the
        products ``evaluate`` forms, bit for bit; a homomorphism mixing
        real and complex images is computed in complex, as a float ball is."""
        if any(i >= len(phi.images) for i, _ in self.alphabet):
            raise PreconditionError(f"generator index {len(phi.images)} out of range")
        root = _identity_like(phi)
        if root.is_exact:
            return None
        return np.concatenate(self._walk(_FloatLevels(phi, self.alphabet, root)))

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


def _within(a, sa, b, sb):
    """Whether each row of a is within tolerance of the same row of b
    (sa, sb their scales)."""
    return np.abs(a - b).max(axis=1) <= FLOAT_DEDUP_TOL * np.maximum(sa, sb)


class _FloatIndex:
    """The elements of a float ball, found again by tolerance, a level at
    a time, through one float key per element.

    The key of a row a is k(a) = fl(w . a) over its n real coordinates
    (real and imaginary parts of complex entries), with the fixed distinct
    weights w_c = (1 + frac(c * 0.618...)) / (2n) of sum W < 1, so a finite
    row has a finite key.  With s_a = max(1, max|a|) every coordinate is at
    most s_a in modulus, so |k(a) - w . a| <= gamma_n W s_a in any order of
    summation (gamma_n = n u / (1 - n u), u the unit roundoff).  If b is
    within tolerance of a, then s_b <= s_a / (1 - tol), and so
    |k(a) - k(b)| <= W s_a (tol + 2 gamma_n) / (1 - tol) < 2 tol W s_a:
    every element within tolerance of a has its key in a's window
    [k(a) - 2 tol W s_a, k(a) + 2 tol W s_a].
    """

    def __init__(self, width, dtype):
        self.rows = np.empty((0, width), dtype)  # flattened, in insertion order
        self.scales = np.empty(0)
        self.keys = np.empty(0)
        n = width * (2 if np.dtype(dtype).kind == "c" else 1)
        self.weights = (1 + np.arange(n) * 0.6180339887498949 % 1) / (2 * n)
        self.reach = 2 * FLOAT_DEDUP_TOL * self.weights.sum()

    def resolve(self, flat, room):
        """Decide the rows of flat (one candidate each) in order, inserting
        each that no element is within tolerance of, until room are
        inserted: (hits, new), hits[j] -1 where row j is inserted and the
        first element in insertion order within tolerance of it otherwise,
        new the inserted rows.

        Row j searches two windows: the earlier levels' elements and the
        level's own rows, each sorted by key.  A window with at most one
        earlier element and at most one other row is decided by one
        gathered comparison each; any other row scans its windows."""
        n, m = len(self.rows), len(flat)
        keys = (flat.view(np.float64) if np.iscomplexobj(flat) else flat) @ self.weights
        scale = np.maximum(1.0, np.abs(flat).max(axis=1))
        order, lorder = np.argsort(self.keys), np.argsort(keys)
        # the windows, searched in key order (sorted queries search faster)
        rank = np.empty(m, int)
        rank[lorder] = np.arange(m)
        low = (keys - self.reach * scale)[lorder]
        high = (keys + self.reach * scale)[lorder]

        def window(sorted_keys):
            return (np.searchsorted(sorted_keys, low)[rank],
                    np.searchsorted(sorted_keys, high, "right")[rank])

        (e_lo, e_hi), (l_lo, l_hi) = window(self.keys[order]), window(keys[lorder])
        # a simple window's one earlier element, and its one earlier row
        # (each row lies in its own window): -1 if none
        e = np.where(e_hi - e_lo == 1, np.append(order, -1)[e_lo], -1)
        at = np.arange(m)
        i = lorder[l_lo] + np.append(lorder, 0)[l_lo + 1] - at
        i = np.where((l_hi - l_lo == 2) & (i < at), i, -1)
        simple = ((e_hi - e_lo <= 1) & (l_hi - l_lo <= 2)).tolist()
        ok_e, ok_i = np.zeros(m, bool), np.zeros(m, bool)
        t = np.flatnonzero(e >= 0)
        ok_e[t] = _within(flat[t], scale[t], self.rows[e[t]], self.scales[e[t]])
        t = np.flatnonzero(i >= 0)
        ok_i[t] = _within(flat[t], scale[t], flat[i[t]], scale[i[t]])
        e, i, ok_e, ok_i = e.tolist(), i.tolist(), ok_e.tolist(), ok_i.tolist()
        hits, new, slot = [], [], [-1] * m  # slot: element index of an inserted row
        for j in range(m):
            if simple[j]:
                h = e[j] if ok_e[j] else slot[i[j]] if ok_i[j] else -1
            else:  # both windows in insertion order (rows from j on have no slot)
                old = np.sort(order[e_lo[j]:e_hi[j]]).tolist()
                mine = [r for r in sorted(lorder[l_lo[j]:l_hi[j]].tolist()) if slot[r] >= 0]
                near = np.flatnonzero(_within(
                    flat[j:j + 1], scale[j], np.concatenate([self.rows[old], flat[mine]]),
                    np.concatenate([self.scales[old], scale[mine]])))
                h = (old + [slot[r] for r in mine])[near[0]] if len(near) else -1
            hits.append(h)
            if h < 0:
                slot[j] = n + len(new)
                new.append(j)
                if len(new) == room:
                    break
        self.rows = np.concatenate([self.rows, flat[new]])
        self.scales = np.concatenate([self.scales, scale[new]])
        self.keys = np.concatenate([self.keys, keys[new]])
        return hits, new


class _ExactLevels:
    """Exact items: keys, each an element's stored canonical (N, d); a
    level's products by ``stack_products``, found again by their keys; an
    inserted key becomes an element."""

    logs_merges = False  # a repeat is the same element, not a merge

    def __init__(self, phi, letters, root):
        root, *self.gens = [(g._m, g._den) for g in [root, *(phi.image(*a) for a in letters)]]
        self.root = [root]
        self.group = phi.group
        self.seen = {}  # the key of every element, to itself
        self.kept = []  # the inserted elements, in entry order

    def element(self, key):
        return GroupElement._ratio(*key, self.group)

    def resolve(self, items, room):
        """(hits, the inserted items): hits[j] -1 where item j is new."""
        # a key is new iff setdefault returns the item itself; a cut ends
        # the ball, so keys it leaves in seen are never looked up
        hits = [0] * len(items)
        new = [j for j, k in enumerate(items) if self.seen.setdefault(k, k) is k][:room]
        for j in new:
            hits[j] = -1
        new = [items[j] for j in new]
        self.kept += map(self.element, new)
        return hits, new

    def products(self, items, t, l):
        """items[t[i]] times letter l[i], for each i."""
        return stack_products(items, self.gens, zip(t.tolist(), l.tolist()))


class _FloatLevels:
    """Float items: a level is one (m, n, n) stack, its products one
    gathered ``matmul``, bit for bit as ``@`` forms each (a homomorphism
    mixing real and complex images is computed in complex throughout); a
    level is decided by ``_FloatIndex``, whose rows are the ball's element
    stack."""

    logs_merges = True

    def __init__(self, phi, letters, root):
        gens = [to_float_array(phi.image(i, e)) for i, e in letters]
        self.dtype = np.result_type(*gens)
        self.gens = np.array(gens, self.dtype)
        self.size = phi.group.size
        self.root = to_float_array(root)[None].astype(self.dtype)

    @cached_property
    def index(self):
        return _FloatIndex(self.size ** 2, self.dtype)

    def resolve(self, items, room):
        """(hits, the inserted items), as ``_FloatIndex.resolve`` decides."""
        flat = items.reshape(len(items), -1)
        if not np.isfinite(flat).all():
            raise NumericalError("a word ball element is not finite (overflow)")
        hits, new = self.index.resolve(flat, room)
        return hits, items[new]

    def products(self, items, t, l):
        """items[t[i]] times letter l[i], for each i."""
        return np.matmul(items[t], self.gens[l])

    @property
    def kept(self):
        return self.index.rows.reshape(-1, self.size, self.size)


@np.errstate(over="ignore", invalid="ignore")  # a float overflow is refused in resolve
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
    are distinct.  A float candidate is found among the elements whose
    keys lie in its key window (see ``_FloatIndex``); it merges into the
    first element inserted (the first entry) within tolerance of it, and
    every merged word is logged in ``merges`` with that element's word.
    Exceeding ``max_elements`` returns the partial ball flagged incomplete.
    """
    if radius < 0:
        raise PreconditionError("radius must be >= 0")
    letters = [(i, e) for i in range(P.rank) for e in (1, -1)]
    root = _identity_like(phi)
    levels = (_ExactLevels if all(g.is_exact for g in phi.images)
              else _FloatLevels)(phi, letters, root)
    parents, lasts, merged = [], [], []
    # a level's candidate i is the product of frontier entry t[i] by letter
    # l[i]; the root is level 0's one candidate, with no parent and no
    # letter (-1).  Letters 2i and 2i + 1 are inverse: l ^ 1 is the letter
    # cancelling l.  A hit is -1 for a new element, else (float) its entry.
    items, frontier, t, l = levels.root, [-1], [0], [-1]
    for depth in range(radius + 1):
        start = len(parents)
        hits, items = levels.resolve(items, max_elements + 1 - start)
        for ti, li, h in zip(t, l, hits):
            if h < 0:
                parents.append(frontier[ti])
                lasts.append(li)
            elif levels.logs_merges:
                merged.append((frontier[ti], li, h))
        frontier = range(start, len(parents))
        if len(parents) > max_elements or depth == radius or not frontier:
            break  # not frontier: a finite group
        t, l = np.nonzero(np.arange(len(letters)) != (np.array(lasts[start:]) ^ 1)[:, None])
        items = levels.products(items, t, l)
        t, l = t.tolist(), l.tolist()
    return BallResult(letters, parents, lasts, len(parents) <= max_elements,
                      root, levels.kept, phi.group, merged)
