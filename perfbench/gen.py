"""Seeded input generator for the four benchmark workloads.

Every word is a lowercase alphabetic token that normalization leaves as it
is: it does not end in "s", is no lemma exception and no article. Words are
decorated with capitals and with punctuation attached to their edges, which
the "em" and "pedants" normalization presets both remove. So the generator
knows each record's normalized strings, and from them the token scores, the
best reference, and the EM and F1 verdicts, without calling pedants.

The structure of each record (how many references, how many words in each
field) depends only on its index; the seed picks the words, the decorations
and the labels. So the work per file barely changes from seed to seed; in
train_wide the seed does not even pick which word goes where.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

QTYPES = ("who", "why", "how", "what", "when", "where", "which")
RULES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7")
F1_THRESHOLD = 0.5

# Words of the bundled seed corpus that normalization leaves unchanged, less
# the wh-words, so seed-style records share vocabulary with the seed bundle.
SEED_WORDS = (
    "about absorb africa air airplane airport alexander all allen america american "
    "anarchist and apollo apple april are at august australia autumn aviation barack "
    "barrier basket be because become before being bell bergen berlin biden big bill "
    "blue boiling border born brazil bruce by called canada canberra capital car carbon "
    "celebrated central change chemical chilly chlorophyll city coast cold color common "
    "communication completed coral could country county crewed day declaration did "
    "dioxide direction discovered do dog down during east eiffel eight empty "
    "encyclopedia end endoscope entry europe everest evergreen every fahrenheit fall "
    "fame feel fiber film first fleming for fork founded four france from frozen fruit "
    "fuel generated glacier gold goldfish graham great had hall handle hawaii held "
    "highway honolulu household ice in independence inside instrument international "
    "invented iron it janeiro japan jersey jfk job joe john joseph juliet july jupiter "
    "keep kennedy kilimanjaro known kropotkin labeling lady lake land laparoscope "
    "largest latin leaving left leonardo level lift like lisa located look lunar lunch "
    "many margaret market match may mexico michelangelo microsoft mission mona moon "
    "more moscow most mount mountain museum name nepal neptune new nicknamed noon north "
    "november nyc obama of off on open optic or orbiting our out outside oven over "
    "oxygen pacific painted paul pear penicillin pet peter petersburg planet play "
    "president presley primary queensland ran recorded red reef respond retired right "
    "rio river romeo sailor saint satire satirical school sea seine september served "
    "shakespeare shark should signed singer sink soccer solar some springsteen start "
    "stay steve stop summer sun surgeon sydney symbol system talking tall tallest tank "
    "tanzania teach team telephone than thatcher their there theresa third threatened "
    "through thursday time titanic to tower turn type united use used vinci visit wall "
    "war warming water weather wednesday were widely will william win with word world "
    "wrote year york you"
).split()

_CONSONANTS = "bdfgklmnprtvz"
_VOWELS = "aeiou"
_PREFIX_PUNCT = ('"', "(", "¿", "«")
_SUFFIX_PUNCT = (",", ".", ";", ":", "!", "?", '"', ")", "…", "»")


def pseudo_words(count: int, rng: random.Random, taken: set[str] = frozenset()) -> list[str]:
    """Distinct consonant-vowel words of 2-4 syllables; they end in a vowel,
    so no lemma rule applies, and none is an English function word."""
    words: list[str] = []
    seen = set(taken)
    while len(words) < count:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 4))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def decorate(words: list[str], rng: random.Random, end: str = "") -> str:
    """Surface text of normalized words: random capitals, edge punctuation."""
    out = []
    for word in words:
        roll = rng.random()
        if roll < 0.2:
            word = word.capitalize()
        elif roll < 0.25:
            word = word.upper()
        if rng.random() < 0.1:
            word = rng.choice(_PREFIX_PUNCT) + word
        if rng.random() < 0.15:
            word = word + rng.choice(_SUFFIX_PUNCT)
        out.append(word)
    text = " ".join(out) + end
    return text[0].upper() + text[1:] if text else text


def token_prf(cand: list[str], ref: list[str]) -> tuple[float, float, float]:
    """Bag-of-tokens precision, recall and F1, as the paper defines them."""
    if not cand and not ref:
        return 1.0, 1.0, 1.0
    if not cand or not ref:
        return 0.0, 0.0, 0.0
    overlap = sum((Counter(cand) & Counter(ref)).values())
    precision, recall = overlap / len(cand), overlap / len(ref)
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


@dataclass
class Truth:
    """What the generator planted in one record, in normalized words."""

    question: list[str]
    references: list[list[str]]
    candidate: list[str]
    best: int  # index of the first reference with the highest F1
    precision: float
    recall: float
    f1: float
    em: bool
    label: int | None = None
    rule: str | None = None
    qtype: str | None = None

    @property
    def f1_verdict(self) -> bool:
        return self.f1 >= F1_THRESHOLD


def plant(question, references, candidate, **annotations) -> Truth:
    scores = [token_prf(candidate, ref) for ref in references]
    best = 0
    for i, s in enumerate(scores):
        if s[2] > scores[best][2]:
            best = i
    return Truth(
        question, references, candidate, best, *scores[best],
        em=any(candidate == ref for ref in references), **annotations,
    )


def record(truth: Truth, rng: random.Random) -> dict:
    rec = {
        "question": decorate(truth.question, rng, "?"),
        "references": [decorate(ref, rng) for ref in truth.references],
        "candidate": decorate(truth.candidate, rng),
    }
    for key in ("label", "rule", "qtype"):
        if getattr(truth, key) is not None:
            rec[key] = getattr(truth, key)
    return rec


def _candidate(i: int, ref: list[str], draw) -> list[str]:
    """A candidate against reference `ref`, of a kind fixed by the index:
    a copy, a copy with extra words, a partial copy, or unrelated words."""
    kind = i % 4
    if kind == 0:
        return list(ref)
    if kind == 1:
        return ref + draw(1 + i % 3)
    if kind == 2:
        return ref[: max(1, len(ref) // 2)] + draw(1 + i % 2)
    return draw(1 + i % 4)


def judge_pedants(seed: int, n: int) -> tuple[list[dict], list[Truth]]:
    """Short seed-style records with 1-3 references over the seed words."""
    rng = random.Random(f"judge-pedants/{seed}")
    draw = lambda k: [rng.choice(SEED_WORDS) for _ in range(k)]  # noqa: E731
    records, truths = [], []
    for i in range(n):
        question = [QTYPES[i % 7]] + draw(4 + i % 5)
        refs = [draw(1 + (i + j) % 4) for j in range(1 + i % 3)]
        truth = plant(question, refs, _candidate(i, refs[i % len(refs)], draw))
        truths.append(truth)
        records.append(record(truth, rng))
    return records, truths


def eval_strings(seed: int, n: int) -> tuple[list[dict], list[Truth]]:
    """Labeled records with 3-6 references and long, verbose candidates:
    20-60 words, which contain, repeat or paraphrase one reference."""
    rng = random.Random(f"eval-strings/{seed}")
    pool = list(SEED_WORDS) + pseudo_words(2000, rng, set(SEED_WORDS))
    draw = lambda k: [rng.choice(pool) for _ in range(k)]  # noqa: E731
    records, truths = [], []
    for i in range(n):
        length = 20 + (i * 7) % 41
        nrefs = 3 + i % 4
        k = i % nrefs
        refs = [draw(2 + (i + j) % 5) for j in range(nrefs)]
        kind = i % 5
        if kind == 0:  # a verbose reference, matched exactly
            refs[k] = draw(length)
            cand = list(refs[k])
        elif kind == 1:  # the reference buried in filler
            cand = draw(length // 2) + refs[k] + draw(length - length // 2 - len(refs[k]))
        elif kind == 2:  # a long reference, partly restated
            refs[k] = draw(length)
            cand = refs[k][: length * 3 // 4] + draw(length // 4)
        elif kind == 3:  # a long reference with a few words swapped
            refs[k] = draw(length)
            cand = [w if j % 4 else rng.choice(pool) for j, w in enumerate(refs[k])]
        else:  # unrelated
            cand = draw(length)
        truth = plant(draw(6 + i % 6), refs, cand, label=rng.randint(0, 1))
        truths.append(truth)
        records.append(record(truth, rng))
    return records, truths


def train_wide(seed: int, n: int, vocab_size: int) -> tuple[list[dict], list[Truth]]:
    """Fully annotated training records over a wide pseudo-word vocabulary.

    The type is fixed by the index and opens the question; the label and
    the rule follow from the kind of candidate, so all three are learnable.
    """
    rng = random.Random(f"train-wide/{seed}")
    pool = pseudo_words(vocab_size, random.Random(f"wide-vocabulary/{seed}"))
    # Which vocabulary slot goes where is the same for every seed: the seed
    # renames the words and decorates them, but the learning problem, and so
    # the number of epochs training takes, stays the same.
    slots = random.Random("train-wide")
    draw = lambda k: [pool[slots.randrange(vocab_size)] for _ in range(k)]  # noqa: E731
    records, truths = [], []
    for i in range(n):
        question = [QTYPES[i % 7]] + draw(5 + i % 4)
        refs = [draw(2 + (i + j) % 3) for j in range(1 + i % 2)]
        cand = _candidate(i // 7, refs[i % len(refs)], draw)
        kind = (i // 7) % 4
        truth = plant(
            question, refs, cand,
            label=int(kind != 3), rule=RULES[(kind * 2 + i // 28) % 7], qtype=QTYPES[i % 7],
        )
        truths.append(truth)
        records.append(record(truth, rng))
    return records, truths


def judge_library(seed: int, n: int, vocab: list[str]) -> tuple[list[dict], list[Truth]]:
    """Records for the wide bundle: nine words in ten come from `vocab`, the
    words its training questions and references use; the rest are new."""
    rng = random.Random(f"judge-library/{seed}")
    fresh = pseudo_words(200, rng, set(vocab))
    draw = lambda k: [  # noqa: E731
        rng.choice(vocab) if rng.random() < 0.9 else rng.choice(fresh) for _ in range(k)
    ]
    records, truths = [], []
    for i in range(n):
        question = [QTYPES[i % 7]] + draw(5 + i % 4)
        refs = [draw(2 + (i + j) % 3) for j in range(1 + i % 3)]
        truth = plant(question, refs, _candidate(i, refs[i % len(refs)], draw))
        truths.append(truth)
        records.append(record(truth, rng))
    return records, truths


def smallest_corpus() -> list[dict]:
    """The smallest corpus `train` accepts: every model needs two classes."""
    return [
        {"question": "Who wrote it?", "references": ["john"], "candidate": "john",
         "label": 1, "rule": "R1", "qtype": "who"},
        {"question": "When was it?", "references": ["may"], "candidate": "june",
         "label": 0, "rule": "R2", "qtype": "when"},
    ]
