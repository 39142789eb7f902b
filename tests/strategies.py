"""Hypothesis strategies shared by the test modules.

`space_strategy` draws a topology: a few random masks with the empty and
full sets, closed under pairwise union and intersection.
`mutated_models` draws a golden model file with one to three characters
replaced, as UTF-8 bytes.
"""

from pathlib import Path

from hypothesis import strategies as st

from proxitop import GroundSpace

MODELS = Path(__file__).parent.parent / "models"
MODEL_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(MODELS.glob("*.yaml"))]
YAML_CHARS = st.one_of(
    st.sampled_from(list(" \n:-,[]{}#'\"&*!|>?%@`0123456789abcdpq")),
    st.characters(blacklist_categories=("Cs",)),
)


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


@st.composite
def mutated_models(draw):
    text = list(draw(st.sampled_from(MODEL_TEXTS)))
    for _ in range(draw(st.integers(1, 3))):
        text[draw(st.integers(0, len(text) - 1))] = draw(YAML_CHARS)
    return "".join(text).encode("utf-8")
