"""Interactions: what a simulated clinician asks, and how answers are judged.

An *interaction* is one query from :class:`repro.eval.workload.WorkloadGenerator`
plus the cooperative follow-ups of :mod:`repro.eval.simulate` (elicitation
answers, proposal yes/no, disambiguation picks), at most
``MAX_FOLLOWUPS`` turns.  The same follow-up and feedback rules drive the
in-process and the served workloads, so ``success_rate`` means the same
on every workload.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.kinds import ResponseKind
from repro.engine.pipeline import AgentResponse
from repro.eval.simulate import MAX_FOLLOWUPS, UserFeedbackModel
from repro.eval.simulate import _is_correct as is_correct  # the ground-truth rule
from repro.eval.workload import SimulatedQuery, WorkloadGenerator
from repro import medical
from repro.kb.backend import wrap_database
from repro.medical.build import rename_to_paper_intents
from repro.medical.knowledge import mdx_glossary

#: Response kinds a cooperative user answers with another turn.
FOLLOWUP_KINDS = (ResponseKind.ELICIT, ResponseKind.PROPOSAL, ResponseKind.DISAMBIGUATE)


def build_agent():
    """The agent ``repro serve`` and ``repro chat`` build by default.

    Same steps as the CLI with no ``--space``: the synthetic MDX KB, the
    SME-refined space with paper intent names, the in-memory backend.
    The builders are looked up at call time, so traced runs time them.
    """
    from repro.engine import ConversationAgent

    database = medical.build_mdx_database()
    space = medical.build_mdx_space(database)
    rename_to_paper_intents(space)
    return ConversationAgent.build(
        space,
        wrap_database(database, "memory"),
        glossary=mdx_glossary(),
        agent_name="Micromedex",
        domain="drug reference",
    )


def interaction_rng(seed: int, index: int) -> random.Random:
    """Follow-up and feedback randomness for interaction ``index``."""
    return random.Random(seed * 1_000_003 + index)


class QueryStream:
    """An endless seeded Table-5 mix, generated in chunks on demand.

    Indices are read in (nearly) increasing order, so only the newest
    two chunks are kept: the benchmark's own memory stays flat however
    long a run is.
    """

    def __init__(self, space: Any, seed: int, chunk: int = 2000) -> None:
        self._generator = WorkloadGenerator(space, seed=seed)
        self._chunk = chunk
        self._chunks: dict[int, list[SimulatedQuery]] = {}
        self._generated = 0

    def __getitem__(self, index: int) -> SimulatedQuery:
        number, offset = divmod(index, self._chunk)
        while number >= self._generated:
            self._chunks[self._generated] = self._generator.generate(self._chunk)
            self._chunks.pop(self._generated - 2, None)
            self._generated += 1
        return self._chunks[number][offset]


class ElicitMap:
    """Recovers the elicited concept from a served ``(intent, text)``.

    ``/chat`` responses do not carry ``elicit_concept``; the prompts come
    from the dialogue logic table, or the answer stage's default
    ``For which <concept>?``, so the agent's own tables invert them.
    """

    _DEFAULT = re.compile(r"^(?:For which|Which) (.+)\?$")

    def __init__(self, agent: Any) -> None:
        self._by_prompt: dict[tuple[str | None, str], str] = {}
        self._concepts: dict[str, str] = {}
        for concept in agent.space.ontology.concepts():
            self._concepts[concept.name.lower()] = concept.name
        for row in agent.logic_table.rows:
            for concept in row.required_entities:
                self._by_prompt[(row.intent_name, row.elicitation_for(concept))] = concept
                self._concepts.setdefault(concept.lower(), concept)

    def concept(self, intent: str | None, text: str) -> str | None:
        found = self._by_prompt.get((intent, text))
        if found is not None:
            return found
        match = self._DEFAULT.match(text)
        if match is None:
            return None
        return self._concepts.get(match.group(1).lower())


def followup(
    kind: str,
    concept: str | None,
    query: SimulatedQuery,
    options_for: Callable[[str], list[str]],
    rng: random.Random,
) -> str | None:
    """What a cooperative user says next (``repro.eval.simulate``'s rule)."""
    if kind == ResponseKind.ELICIT and concept:
        value = query.entities.get(concept)
        if value is None:
            options = options_for(concept)
            value = rng.choice(options) if options else None
        return value
    if kind == ResponseKind.PROPOSAL:
        return "yes" if rng.random() < 0.7 else "no"
    if kind == ResponseKind.DISAMBIGUATE:
        for value in query.entities.values():
            return value
        return None
    return None


def feedback_for(query: SimulatedQuery, kind: str, correct: bool, rng: random.Random) -> str | None:
    """Thumbs feedback at :class:`UserFeedbackModel`'s default rates."""
    model = UserFeedbackModel()
    if query.noise == "gibberish":
        return "down" if rng.random() < model.down_when_gibberish else None
    if not correct:
        return "down" if rng.random() < model.down_when_wrong else None
    if kind == ResponseKind.ANSWER_EMPTY:
        return "down" if rng.random() < model.down_when_empty else None
    if rng.random() < model.down_when_correct:
        return "down"
    if rng.random() < model.up_when_correct:
        return "up"
    return None


def served_response(body: dict) -> AgentResponse:
    """A ``/chat`` body as the response object the ground-truth rule reads."""
    return AgentResponse(
        text=body["text"],
        intent=body.get("intent"),
        confidence=float(body.get("confidence") or 0.0),
        kind=body["kind"],
        entities=dict(body.get("entities") or {}),
    )


@dataclass
class Answer:
    """What one turn answered, as compared by the correctness gate."""

    utterance: str
    kind: str
    intent: str | None
    text: str

    def key(self) -> tuple:
        return (self.kind, self.intent, self.text)


@dataclass
class Mismatch:
    session: str
    turn: int
    expected: tuple
    got: tuple


@dataclass
class ReplayReport:
    sessions: int = 0
    turns: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)


def replay(
    agent: Any,
    scripts: dict[str, list[Answer]],
    corrupt: bool = False,
) -> ReplayReport:
    """Replay each session script in a fresh in-process session.

    Every recorded answer must equal the in-process answer.  Scripts with
    the same utterances replay once.  ``corrupt`` alters one recorded
    answer before comparing, to prove the gate fails.
    """
    report = ReplayReport()
    expected_by_script: dict[tuple[str, ...], list[tuple]] = {}
    for sid in sorted(scripts, key=lambda s: (len(s), s)):
        answers = scripts[sid]
        utterances = tuple(a.utterance for a in answers)
        expected = expected_by_script.get(utterances)
        if expected is None:
            session = agent.session()
            expected = []
            for utterance in utterances:
                response = session.ask(utterance)
                expected.append((response.kind, response.intent, response.text))
            expected_by_script[utterances] = expected
        report.sessions += 1
        for turn, answer in enumerate(answers, start=1):
            got = answer.key()
            if corrupt:
                got = (got[0], got[1], got[2] + " [corrupted by the benchmark]")
                corrupt = False
            report.turns += 1
            if got != expected[turn - 1]:
                report.mismatches.append(Mismatch(sid, turn, expected[turn - 1], got))
    return report
