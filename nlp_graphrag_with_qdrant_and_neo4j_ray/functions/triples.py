"""Triplet extraction semantics: model-output parser, relation sanitizer,
entity normalizer, and the deterministic grammar extractor.

The reference generates per-sentence model text with a T5 adapter
(/root/reference/graphrag/core/triplets.py:144-150) and parses it with two
formats (triplets.py:153-198). The parse/normalize semantics are the stable
contract (SURVEY.md M5-M7); the model itself is swappable
(``TripletModel`` protocol). The default production-less extractor here is a
deterministic grammar rule (subject-verb-object over the vendored
tokenizer) so P/R vs golden fixtures is testable without GPU weights.
"""

from __future__ import annotations

import re

from .tokenize import sent_tokenize, word_tokenize

Triple = tuple[str, str, str]

_TWO_SPACES = re.compile(r"\s{2,}")


def parse_triplet_output(triplet_text: str) -> list[Triple]:
    """Parse raw triplet-model output text into (subj, rel, obj) tuples.

    Exact semantics of /root/reference/graphrag/core/triplets.py:152-198:

    - marker format: split on ``<triplet>``; per segment trim at
      ``</triplet>`` if present, drop ``<pad>``, require both
      ``<relation>`` and ``<object>`` markers; subj/rel/obj are the
      stripped spans around them; keep only fully non-empty triples.
    - fallback: strip ``<pad>``/``</s>``, split on 2+ spaces, accept iff
      exactly 3 parts.
    - any exception → empty list (triplets.py:202-205).
    """
    try:
        triplets: list[Triple] = []
        if "<triplet>" in triplet_text:
            for segment in triplet_text.split("<triplet>"):
                if not segment.strip():
                    continue
                content = (
                    segment.split("</triplet>")[0]
                    if "</triplet>" in segment
                    else segment
                )
                content = content.replace("<pad>", "")
                if "<relation>" in content and "<object>" in content:
                    subj = content.split("<relation>")[0].strip()
                    rel = content.split("<relation>")[1].split("<object>")[0].strip()
                    obj = content.split("<object>")[1].strip()
                    if subj and rel and obj:
                        triplets.append((subj, rel, obj))
        else:
            cleaned = triplet_text.replace("<pad>", "").replace("</s>", "").strip()
            parts = _TWO_SPACES.split(cleaned)
            if len(parts) == 3:
                triplets.append((parts[0].strip(), parts[1].strip(), parts[2].strip()))
        return triplets
    except Exception:
        return []


def sanitize_relation(rel: str) -> str:
    """Strip non-[0-9a-zA-Z_ ], spaces→_, uppercase
    (/root/reference/graphrag/core/triplets.py:207-218). Defined and
    exported by the reference but NEVER applied by its write path
    (SURVEY.md §1.1) — provided for API parity, not applied by default."""
    return re.sub(r"[^0-9a-zA-Z_ ]", "", rel).replace(" ", "_").upper()


# ---------------------------------------------------------------------------
# Deterministic grammar extractor (the hermetic default TripletModel)
# ---------------------------------------------------------------------------

COPULAS = frozenset({"is", "are", "was", "were"})

VERBS = frozenset(
    """
    is are was were has have had founded founds develops developed creates
    created acquires acquired produces produced directs directed writes
    wrote stars leads led launches launched releases released employs owns
    builds built makes made operates hosts publishes published won serves
    joined establishes established invents invented designs designed
    discovered pilots pilot defends battles commands loves becomes became
    uses
    """.split()
)

PARTICIPLES = frozenset(
    """
    located based known founded created directed written released named
    owned acquired designed built established headquartered developed
    produced invented published piloted discovered led set
    """.split()
)

PREPOSITIONS = frozenset({"in", "by", "for", "at", "on", "of", "to", "with", "as"})

ARTICLES = frozenset({"a", "an", "the"})

_PUNCT_ONLY = re.compile(r"^[^\w]+$")


def _join(tokens: list[str]) -> str:
    """Join word tokens, dropping pure-punctuation tokens."""
    return " ".join(t for t in tokens if not _PUNCT_ONLY.match(t))


def extract_triples_grammar(sentence: str) -> list[Triple]:
    """First-match SVO extraction over the vendored tokenizer.

    Rule (deterministic): find the earliest token that is in VERBS with at
    least one token before and after it. The predicate is that verb,
    extended by a following participle and then a following preposition
    (so "is located in" / "was founded by" are single predicates). For a
    bare copula the object drops its leading article. Subject/object drop
    pure-punctuation tokens; empty side → no triple. At most one triple
    per sentence (first match) — precision over recall, mirroring the
    reference model's one-sentence-one-call shape
    (/root/reference/graphrag/core/triplets.py:421-425).
    """
    tokens = word_tokenize(sentence)
    n = len(tokens)
    for i in range(1, n - 1):
        tok = tokens[i].lower()
        if tok not in VERBS:
            continue
        pred_end = i + 1
        if tok in COPULAS and pred_end < n and tokens[pred_end].lower() in PARTICIPLES:
            pred_end += 1
            if pred_end < n and tokens[pred_end].lower() in PREPOSITIONS:
                pred_end += 1
        elif pred_end < n and tokens[pred_end].lower() in PREPOSITIONS and tok not in COPULAS:
            pred_end += 1
        if pred_end >= n:
            continue
        subj_tokens = tokens[:i]
        obj_tokens = tokens[pred_end:]
        # truncate the object before any later verb (run-on sentences in
        # web text otherwise swallow the rest of the line)
        for j, t in enumerate(obj_tokens):
            if t.lower() in VERBS:
                obj_tokens = obj_tokens[:j]
                break
        # drop trailing punctuation tokens, then a trailing "in <year>"
        while obj_tokens and _PUNCT_ONLY.match(obj_tokens[-1]):
            obj_tokens = obj_tokens[:-1]
        if (
            len(obj_tokens) >= 3
            and obj_tokens[-2].lower() == "in"
            and obj_tokens[-1].isdigit()
            and len(obj_tokens[-1]) == 4
        ):
            obj_tokens = obj_tokens[:-2]
        # drop a dangling trailing article
        while obj_tokens and obj_tokens[-1].lower() in ARTICLES:
            obj_tokens = obj_tokens[:-1]
        # bare copula: drop the object's leading article
        if pred_end == i + 1 and tok in COPULAS and obj_tokens and obj_tokens[0].lower() in ARTICLES:
            obj_tokens = obj_tokens[1:]
        subj = _join(subj_tokens)
        pred = " ".join(t.lower() for t in tokens[i:pred_end])
        obj = _join(obj_tokens)
        if subj and pred and obj:
            return [(subj, pred, obj)]
        return []
    return []


class GrammarTripletModel:
    """Hermetic TripletModel: ``extract(sentences) -> list[list[Triple]]``."""

    name = "grammar-svo-v1"

    def extract(self, sentences: list[str]) -> list[list[Triple]]:
        return [extract_triples_grammar(s) for s in sentences]


def render_marker_output(triples: list[Triple]) -> str:
    """Render triples as T5-adapter-style marker text (the format the
    reference's model emits and core/triplets.py:153-176 parses)."""
    if not triples:
        return "<pad></s>"
    parts = ["<pad>"]
    for s, p, o in triples:
        parts.append(f"<triplet> {s} <relation> {p} <object> {o} </triplet>")
    parts.append("</s>")
    return "".join(parts)


class MarkerEchoTripletModel:
    """Exercises the PRODUCTION decode→parse path end-to-end: per
    sentence it generates marker-format text (like the reference's T5
    adapter) and the results flow back through
    :func:`parse_triplet_output` — so the pipeline consumes parsed model
    TEXT, not structured tuples. A real seq2seq model slots in by
    replacing ``_generate``."""

    name = "marker-echo-v1"

    def _generate(self, sentence: str) -> str:
        return render_marker_output(extract_triples_grammar(sentence))

    def extract(self, sentences: list[str]) -> list[list[Triple]]:
        return [parse_triplet_output(self._generate(s)) for s in sentences]


class T5TripletModel:
    """Transformers-backed TripletModel mirroring the reference's loader
    (/root/reference/graphrag/core/triplets.py:28-132): a PEFT adapter
    (default ``bew/t5_sentence_to_triplet_xl``) over a seq2seq base
    (``google/flan-t5-xl``), ``generate(max_length=64)``
    (triplets.py:146-147), decode with ``skip_special_tokens=False``
    (triplets.py:150), output fed to :func:`parse_triplet_output`.

    Engine difference: the reference generates ONE sentence per call
    (triplets.py:421-425); here sentences are batched through
    ``generate`` in ``gen_batch_size`` groups — the batch boundary is an
    execution detail, the per-sentence decode→parse contract is
    unchanged.

    Heavy state → run as an actor-pool stage (``stages.tripletstage``
    selects actor mode for any non-hermetic model name; ``__init__``
    loads weights once per actor). ``model``/``tokenizer`` are
    constructor-injectable so the decode→parse flow is testable without
    weights; without injection, missing transformers/peft raises at
    construction (callers fall back to the hermetic marker-echo model).
    """

    def __init__(
        self,
        adapter_name: str = "bew/t5_sentence_to_triplet_xl",
        base_model: str = "google/flan-t5-xl",
        device: str | None = None,
        max_length: int = 64,
        gen_batch_size: int = 16,
        model=None,
        tokenizer=None,
    ):
        self.name = f"t5:{adapter_name}"
        self.max_length = max_length
        self.gen_batch_size = gen_batch_size
        if model is not None and tokenizer is not None:
            self.model, self.tokenizer = model, tokenizer
            return
        # pragma: no cover — heavyweight optional dependencies
        from peft import PeftModel  # type: ignore
        from transformers import (  # type: ignore
            AutoModelForSeq2SeqLM,
            AutoTokenizer,
        )

        self.tokenizer = AutoTokenizer.from_pretrained(base_model)
        base = AutoModelForSeq2SeqLM.from_pretrained(base_model)
        self.model = PeftModel.from_pretrained(base, adapter_name)
        if device:
            self.model = self.model.to(device)
        self.model.eval()

    def _no_grad(self):
        try:  # torch optional: injected fakes run without it
            import torch  # type: ignore

            return torch.no_grad()
        except ImportError:
            import contextlib

            return contextlib.nullcontext()

    def _generate(self, sentences: list[str]) -> list[str]:
        outs: list[str] = []
        for i in range(0, len(sentences), self.gen_batch_size):
            chunk = sentences[i : i + self.gen_batch_size]
            enc = self.tokenizer(
                chunk, return_tensors="pt", padding=True, truncation=True
            )
            with self._no_grad():
                ids = self.model.generate(**enc, max_length=self.max_length)
            outs.extend(
                self.tokenizer.batch_decode(ids, skip_special_tokens=False)
            )
        return outs

    def extract(self, sentences: list[str]) -> list[list[Triple]]:
        if not sentences:
            return []
        return [parse_triplet_output(t) for t in self._generate(sentences)]


def extract_from_text(text: str) -> list[tuple[int, Triple]]:
    """Sentence fan-out + grammar extraction for one chunk text: returns
    (sent_index, triple) pairs (reference loop at core/triplets.py:419-425)."""
    out: list[tuple[int, Triple]] = []
    for si, sent in enumerate(sent_tokenize(text)):
        for tr in extract_triples_grammar(sent):
            out.append((si, tr))
    return out
