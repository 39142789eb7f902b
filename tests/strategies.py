"""Hypothesis strategies shared by the test modules.

`space_strategy` draws a topology: a few random masks with the empty and
full sets, closed under pairwise union and intersection.
"""

from hypothesis import strategies as st

from proxitop import GroundSpace


def space_strategy(max_n=4):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        full = (1 << n) - 1
        seeds = draw(st.lists(st.integers(min_value=0, max_value=full), max_size=4))
        opens = {0, full} | set(seeds)
        changed = True
        while changed:
            changed = False
            for a in list(opens):
                for b in list(opens):
                    for m in (a | b, a & b):
                        if m not in opens:
                            opens.add(m)
                            changed = True
        return GroundSpace.create(n, opens)

    return build()
