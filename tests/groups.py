"""Reference group order for the tests: a Schreier-Sims stabilizer chain
built from the generators alone, independent of the labelling search."""

from matcat.canon import _compose, _invert


class _StabilizerChain:
    """Base, strong generators and transversals of a permutation group on
    {0..n-1}, grown one generator at a time (Schreier-Sims).

    Level j holds a base point, the strong generators that fix the base
    points of the levels above it, and a transversal: each point of the
    base point's orbit mapped to a group element sending the base point
    there, and to its inverse.  Every Schreier generator of a level is
    sifted through the levels below it, and a nonidentity residue becomes a
    new strong generator, so the group order is the product of the orbit
    lengths.
    """

    def __init__(self, n: int):
        self.identity = tuple(range(n))
        # [base point, strong generators, transversal, inverse transversal]
        self.levels = []

    def _sift(self, g, start=0):
        """(residue, depth): g divided by transversal elements from level
        start down, until a level's orbit misses its base point's image."""
        for depth in range(start, len(self.levels)):
            point, _, _, inv = self.levels[depth]
            t = inv.get(g[point])
            if t is None:
                return g, depth
            g = _compose(t, g)
        return g, len(self.levels)

    def add(self, g):
        """Add g to the group."""
        g, depth = self._sift(tuple(g))
        if g != self.identity:
            self._add_strong(0, depth, g)

    def _add_strong(self, top, depth, g):
        """Make g, which fixes the base points above level depth, a strong
        generator of levels top..depth, deepest first."""
        if depth == len(self.levels):
            point = next(x for x, y in enumerate(g) if x != y)
            e = self.identity
            self.levels.append([point, [], {point: e}, {point: e}])
        for j in range(depth, top - 1, -1):
            self._extend_level(j, g)

    def _extend_level(self, j, g):
        _, gens, trans, inv = self.levels[j]
        gens.append(g)
        work = [(x, g) for x in trans]
        while work:
            x, s = work.pop()
            y = s[x]
            sx = _compose(s, trans[x])
            ty = inv.get(y)
            if ty is None:
                trans[y] = sx
                inv[y] = _invert(sx)
                work.extend((y, h) for h in gens)
                continue
            if sx == trans[y]:
                continue  # the Schreier generator is the identity
            residue, depth = self._sift(_compose(ty, sx), j + 1)
            if residue != self.identity:
                self._add_strong(j + 1, depth, residue)

    def order(self) -> int:
        order = 1
        for level in self.levels:
            order *= len(level[2])
        return order


def group_order(n: int, gens) -> int:
    """Order of the permutation group generated by gens."""
    chain = _StabilizerChain(n)
    for g in gens:
        chain.add(g)
    return chain.order()
