"""Schemes: subsets of a lattice carrying the height metric.

Puncturing meets every member with a fixed element w; members that collide
are merged, which is exactly a distance-0 collision, so reports treat any
shrink in size as distance 0.  The project variant additionally forces each
image down one height level.
"""

from __future__ import annotations

import random
import re
from typing import Callable, Iterable, NamedTuple, Sequence

from .fq import (
    Subspace,
    build_powerset_lattice,
    build_projective_lattice,
    rref,
    subspace_from_text,
    subspace_id,
    subspace_of,
    subspace_to_text,
)
from .lattice import Lattice, LatticeError

CHOOSER_POLICIES = ("least", "random")


class Scheme(NamedTuple):
    lattice: Lattice
    members: frozenset
    min_dist: int | None  # None when fewer than two members
    min_height: int
    max_height: int

    @property
    def size(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[int]:
        return sorted(self.members)


def make_scheme(lat: Lattice, members: Iterable[int]) -> Scheme:
    """Build a scheme, eagerly caching min distance and the height window."""
    ids = sorted(set(members))
    if not ids:
        raise ValueError("a scheme needs at least one member")
    for x in ids:
        if not 0 <= x < len(lat):
            raise ValueError(f"member {x} out of range")
    hs = [lat.heights[x] for x in ids]
    d = None
    if len(ids) >= 2:
        d = min(min(lat.distances(a, ids[i + 1:])) for i, a in enumerate(ids[:-1]))
    return Scheme(lat, frozenset(ids), d, min(hs), max(hs))


def min_distance(s: Scheme) -> int:
    if s.min_dist is None:
        raise ValueError("undefined minimum distance (singleton scheme)")
    return s.min_dist


def puncture(s: Scheme, w: int) -> Scheme:
    """Meet every member with w; duplicates merge."""
    lat = s.lattice
    return make_scheme(lat, {lat.meet(w, a) for a in s.members})


def punctured_distance(before: Scheme, after: Scheme) -> int:
    """Min distance of a punctured scheme; merges count as distance 0."""
    if after.size < before.size:
        return 0
    return after.min_dist if after.size >= 2 else 0


def puncture_project(s: Scheme, w: int, policy: str = "least", seed: int | None = None) -> Scheme:
    """Puncture by w, then force every image one height level down.

    For a member c the image is an element of height h(c)-1 inside c ^ w:
    when c is not below w (and w is a coatom of a modular lattice) that is
    c ^ w itself; when c <= w a lower element of c must be chosen.  `policy`
    picks it: "least" takes the smallest element id, "random" draws uniformly
    under `seed`.  The bottom maps to itself (no height -1 element exists),
    realized by falling back to c ^ w whenever no candidate exists.
    """
    if policy not in CHOOSER_POLICIES:
        raise ValueError(f"unknown chooser policy {policy!r}")
    lat = s.lattice
    rng = random.Random(seed)
    images = set()
    for c in sorted(s.members):
        x = lat.meet(c, w)
        target = lat.heights[c] - 1
        cands = [y for y in lat.downset(x) if lat.heights[y] == target]
        if not cands:
            img = x
        elif policy == "least":
            img = cands[0]
        else:
            img = rng.choice(cands)
        images.add(img)
    return make_scheme(lat, images)


# --- transforms ---------------------------------------------------------------


def support_transform(vec: Sequence[int]) -> int:
    """Support of a 0/1 vector as a power-set lattice element id (bitmask)."""
    mask = 0
    for i, x in enumerate(vec):
        if x not in (0, 1):
            raise ValueError("binary vector expected")
        if x:
            mask |= 1 << i
    return mask


def lifting_transform(rows: Sequence[Sequence[int]], q: int) -> Subspace:
    """Row space of [I | A] in F_q^(m+n) for an m x n matrix A."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    lifted = []
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ValueError("ragged matrix")
        e = [0] * m
        e[i] = 1
        lifted.append(e + [int(x) % q for x in r])
    return rref(lifted, m + n, q)


class TransformWitness(NamedTuple):
    ok: bool
    injective: bool
    isometric: bool
    pairs_checked: int
    code_min_distance: int | None
    scheme_min_distance: int | None
    failure: str | None


def verify_transform(codewords, code_distance: Callable, transform: Callable, lat: Lattice) -> TransformWitness:
    """Check that a code-to-lattice map is injective and distance-preserving.

    Every pair is compared; the witness records the first violated pair and,
    on success, the (necessarily equal) minimum distances on both sides.
    """
    words = list(codewords)
    images = [transform(wd) for wd in words]
    failure = None
    injective = True
    seen: dict[int, int] = {}
    for idx, img in enumerate(images):
        if img in seen:
            injective = False
            failure = (
                f"codewords {words[seen[img]]!r} and {words[idx]!r} both map to "
                f"element {lat.names[img]!r}"
            )
            break
        seen[img] = idx
    isometric = True
    pairs = 0
    code_min = None
    scheme_min = None
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            pairs += 1
            dx = code_distance(words[i], words[j])
            dh = lat.distance(images[i], images[j])
            if dx != dh:
                isometric = False
                if failure is None:
                    failure = (
                        f"distance mismatch for ({words[i]!r}, {words[j]!r}): "
                        f"code {dx}, lattice {dh}"
                    )
                break
            code_min = dx if code_min is None else min(code_min, dx)
            scheme_min = dh if scheme_min is None else min(scheme_min, dh)
        if not isometric:
            break
    ok = injective and isometric
    if not ok:
        code_min = scheme_min = None
    return TransformWitness(ok, injective, isometric, pairs, code_min, scheme_min, failure)


# --- scheme files --------------------------------------------------------------

_HEADER_RE = re.compile(r"q=(\d+)\s+n=(\d+)$")


def parse_scheme_text(text: str, max_elements: int | None = None) -> Scheme:
    """Parse a scheme file: its family lattice, and one member per line.

    Projective files start with a "q=<q> n=<n>" header followed by subspace
    rows like "101/011"; power-set files are bare binary strings, one subset
    per line (the support of a binary codeword), with n the length of the
    first.  A first line that is neither is rejected before any lattice is
    built.  Members are read by parse_element, as --w is.  Two lines that
    name one element (two bases of one subspace, or one word twice) are
    rejected: a code with a repeated word has distance 0.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise LatticeError("empty scheme file")
    header = _HEADER_RE.match(lines[0])
    if header:
        q, n = int(header.group(1)), int(header.group(2))
        members = lines[1:]
        if not members:
            raise LatticeError("projective scheme file has no members")
        lat = build_projective_lattice(n, q, max_elements)
    elif lines[0].strip("01"):
        raise LatticeError(f"bad first line {lines[0]!r} (need a 'q=<q> n=<n>' header or binary digits)")
    else:
        members = lines
        lat = build_powerset_lattice(len(lines[0]), max_elements)
    seen: dict[int, str] = {}
    for ln in members:
        x = parse_element(ln, lat)
        if x in seen:
            raise LatticeError(f"scheme lists one element twice: {seen[x]!r} and {ln!r}")
        seen[x] = ln
    return make_scheme(lat, seen)


def _family(lat: Lattice) -> tuple[str, int, int | None]:
    if lat.family is None:
        raise ValueError("scheme text needs a power-set or projective family lattice")
    return lat.family


def parse_element(text: str, lat: Lattice) -> int:
    """The id in lat, a family lattice, of an element in scheme notation:
    subspace rows for Sub(F_q^n), n binary digits for 2^[n].  The one reader
    of that notation, for scheme-file lines and --w alike."""
    family, n, q = _family(lat)
    if family == "projective":
        try:
            return subspace_id(lat, subspace_from_text(text, n, q))
        except ValueError as e:
            raise LatticeError(str(e)) from None
    if len(text) != n or any(ch not in "01" for ch in text):
        raise LatticeError(f"bad element {text!r} (need {n} binary digits)")
    return support_transform([int(ch) for ch in text])


def scheme_to_text(s: Scheme) -> str:
    """Inverse of parse_scheme_text, for a scheme on a family lattice.

    Members are written in the family's notation, found from their ids, so a
    renamed family lattice (with_names) writes the same text.
    """
    family, n, q = _family(s.lattice)
    if family == "projective":
        body = [f"q={q} n={n}"] + [subspace_to_text(subspace_of(s.lattice, x)) for x in s.sorted_members()]
    else:
        body = ["".join("1" if (x >> i) & 1 else "0" for i in range(n)) for x in s.sorted_members()]
    return "\n".join(body) + "\n"
