"""The concrete stages of the online turn pipeline.

Each stage is one behaviour the imperative ``ConversationAgent.respond``
dispatcher used to thread through private helpers, now with its own
unit-testable contract.  Execution order (assembled by
:func:`default_stages`) is behaviour-preserving with respect to the old
dispatcher and is enforced by the golden-transcript suite:

==================  =====================================================
Stage               Responsibility (paper reference)
==================  =====================================================
classify            Intent classification + entity recognition + the
                    gibberish guard (Figure 1(b); §7.2 "apfjhd").
management_rescue   A weakly-classified management intent yields to a
                    domain reading carrying entities and concepts.
resolve_disambig    A pending "Did you mean ...?" answer resolves first.
proposal            A pending keyword proposal ("Would you like to see
                    ...?") consumes yes/no (§6.3, User 480).
slot_fill           A bare answer to an elicitation adopts the pending
                    intent (§6.3 lines 02–05).
context_reinterp    Entity mentions related to the prior request modify
                    it instead of starting over (§6.3 line 06).
entity_rescue       Low classifier confidence corroborated against
                    recognized entities/concepts (§6.3 intent + entity).
keyword_route       An entity-only utterance routes to the keyword
                    intent ("cogentin", §6.3).
slot_arbitration    A confident classification missing required slots
                    yields to a runner-up whose slots are filled.
ask_disambiguation  Unresolved ambiguity on a needed concept: ask.
tree                Dialogue-tree traversal (§5) produces the outcome.
management          Acts on a ``management`` outcome (canned replies,
                    definition repair, paraphrase, abort).
elicit              Acts on an ``elicit`` outcome (slot prompt).
keyword             Acts on a ``keyword`` outcome (redirect or proposal).
answer              Acts on an ``answer`` outcome: template selection,
                    query execution, response generation.
fallback            Total: entity-mention proposal or the apology.
==================  =====================================================
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable

from repro.bootstrap.intents import Intent, keyword_intent_name
from repro.dialogue.logic_table import context_key
from repro.dialogue.responses import (
    format_grouped_rows,
    format_result_rows,
    render_template,
)
from repro.dialogue.tree import NodeOutcome
from repro.engine.kinds import ResponseKind
from repro.engine.pipeline import AgentResponse, Stage, TurnState
from repro.engine.recognizer import RecognitionResult
from repro.errors import (
    DialogueError,
    KBError,
    MissingBindingsError,
    TemplateError,
)
from repro.nlp.classifier import UtteranceAnalysis
from repro.nlp.tokenizer import Utterance, tokenize
from repro.nlq.templates import StructuredQueryTemplate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dialogue.context import ConversationContext
    from repro.engine.agent import ConversationAgent

#: Confidence assigned when context (slot filling / incremental
#: modification) determines the intent instead of the classifier.
CONTEXT_CONFIDENCE = 0.99

#: Classifier confidence above which context-based reinterpretation is
#: not attempted (the classifier is trusted).
TRUST_THRESHOLD = 0.75


# ---------------------------------------------------------------------------
# Shared helpers (the old private methods, now free functions)
# ---------------------------------------------------------------------------


def domain_intent(agent: "ConversationAgent", name: str | None) -> Intent | None:
    """The named intent when it exists and is not a management intent."""
    if name is None or not agent.space.has_intent(name):
        return None
    intent = agent.space.intent(name)
    if intent.kind in ("management",):
        return None
    return intent


def rescue_low_confidence(
    agent: "ConversationAgent",
    analysis: UtteranceAnalysis,
    recognition: RecognitionResult,
) -> tuple[str, float] | None:
    """Corroborate low-confidence top-k candidates with entities.

    A candidate domain intent is adopted when the recognized entities
    satisfy all of its required slots, and either its result concept
    was mentioned by name or its slots are genuinely filled.  Keyword
    intents are never rescued (they are the fallback of last resort).
    """
    mentioned_concepts = {c.lower() for c in recognition.concepts}
    recognized = {c.lower() for c in recognition.values}
    candidates = analysis.top_k(3)
    # Pass 1: a candidate whose *result concept* was named outranks
    # everything — "pk profile of X" names Pharmacokinetics.
    for candidate in candidates:
        intent = domain_intent(agent, candidate.intent)
        if intent is None or intent.kind == "keyword" or not intent.patterns:
            continue
        if (
            intent.result_concept is not None
            and intent.result_concept.lower() in mentioned_concepts
        ):
            return intent.name, max(
                candidate.confidence, agent.tree.confidence_threshold
            )
    # Pass 2: full slot corroboration, but only when the utterance also
    # names some concept — a bare drug name must stay on the keyword
    # path, not hijack a slot-filled intent.
    if mentioned_concepts:
        for candidate in candidates:
            intent = domain_intent(agent, candidate.intent)
            if intent is None or intent.kind == "keyword" or not intent.patterns:
                continue
            required = {c.lower() for c in intent.required_entities}
            if required and required <= recognized:
                return intent.name, max(
                    candidate.confidence, agent.tree.confidence_threshold
                )
    return None


def slot_answer(
    agent: "ConversationAgent",
    utterance: str | Utterance,
    recognition: RecognitionResult,
    context: "ConversationContext",
) -> str | None:
    """The value answering the pending elicitation, if the utterance
    provides one."""
    pending = context.pending_entity
    if pending is None:
        return None
    for concept, value in recognition.values.items():
        if concept.lower() == pending.lower():
            return value
    return agent.recognizer.is_instance_of(utterance, pending)


def ask_disambiguation(
    agent: "ConversationAgent",
    recognition: RecognitionResult,
    intent_name: str | None,
    confidence: float,
    context: "ConversationContext",
) -> AgentResponse:
    """Ask which of several partial-name matches was meant."""
    surface, candidates = next(iter(recognition.ambiguous.items()))
    shown = candidates[:4]
    options = ", ".join(value for _, value in shown)
    context.variables["disambiguation"] = {
        "surface": surface,
        "candidates": shown,
        "intent": intent_name,
        "confidence": confidence,
    }
    return AgentResponse(
        text=f"I know several matches for \"{surface}\": {options}. "
        "Which one do you mean?",
        intent=intent_name,
        confidence=confidence,
        kind=ResponseKind.DISAMBIGUATE,
        entities=dict(recognition.values),
    )


def resolve_disambiguation(
    agent: "ConversationAgent",
    utterance: str,
    recognition: RecognitionResult,
    context: "ConversationContext",
) -> tuple[str | None, float] | None:
    """Resolve a pending "Did you mean ...?" from the user's reply."""
    pending = context.variables.get("disambiguation")
    if not pending:
        return None
    tokens = set(tokenize(utterance))
    chosen: tuple[str, str] | None = None
    for concept, value in pending["candidates"]:
        value_tokens = set(tokenize(value))
        if value_tokens and value_tokens <= tokens | set(
            itertools.chain.from_iterable(
                tokenize(v) for v in recognition.values.values()
            )
        ):
            chosen = (concept, value)
            break
    if chosen is None:
        # Try containment the other way: the reply may be a fragment
        # uniquely identifying one candidate.
        matches = [
            (concept, value)
            for concept, value in pending["candidates"]
            if tokens & set(tokenize(value))
        ]
        if len(matches) == 1:
            chosen = matches[0]
    context.variables.pop("disambiguation", None)
    if chosen is None:
        return None
    concept, value = chosen
    recognition.values[concept] = value
    stored_intent = pending.get("intent")
    if stored_intent and domain_intent(agent, stored_intent):
        return stored_intent, CONTEXT_CONFIDENCE
    return None


# -- keyword (entity-only) proposal flow ------------------------------------


def proposal_options(agent: "ConversationAgent", concept: str) -> list[str]:
    """Lookup intents that can be proposed for an entity-only mention,
    ordered by the dependent-concept list of the classification."""
    options = []
    for dependent in agent.space.classification.dependents_of.get(concept, []):
        for intent in agent.space.intents:
            if (
                intent.kind == "lookup"
                and intent.result_concept
                and intent.result_concept.lower() == dependent.lower()
                and any(
                    r.lower() == concept.lower()
                    for r in intent.required_entities
                )
            ):
                options.append(intent.name)
                break
    return options


def start_proposal(
    agent: "ConversationAgent",
    concept: str,
    value: str,
    context: "ConversationContext",
) -> AgentResponse | None:
    """Open a proposal sequence for an entity-only mention, if any
    lookup intent can be proposed."""
    options = proposal_options(agent, concept)
    if not options:
        return None
    context.remember_entity(concept, value)
    context.variables["proposal"] = {
        "concept": concept,
        "value": value,
        "options": options,
        "index": 0,
    }
    return propose_next(agent, context)


def propose_next(
    agent: "ConversationAgent", context: "ConversationContext"
) -> AgentResponse:
    """Propose the next query pattern, or give up after two rejections."""
    proposal = context.variables["proposal"]
    index = proposal["index"]
    options = proposal["options"]
    if index >= len(options) or index >= 2:
        # Give up after two rejected proposals (§6.3, User 480 lines 5-6).
        context.variables.pop("proposal", None)
        return AgentResponse(
            text="OK. Please modify your search.",
            intent="abort",
            confidence=1.0,
            kind=ResponseKind.MANAGEMENT,
        )
    intent = agent.space.intent(options[index])
    subject = intent.result_concept or intent.name
    return AgentResponse(
        text=(
            f"Would you like to see the {subject.lower()} of "
            f"{proposal['value']}?"
        ),
        intent=intent.name,
        confidence=1.0,
        kind=ResponseKind.PROPOSAL,
        entities={proposal["concept"]: proposal["value"]},
    )


def handle_proposal(
    agent: "ConversationAgent",
    intent_name: str | None,
    confidence: float,
    recognition: RecognitionResult,
    context: "ConversationContext",
) -> AgentResponse | None:
    """Consume the user's reply to a pending proposal, if any."""
    proposal = context.variables.get("proposal")
    if not proposal:
        return None
    if (
        intent_name == "affirmative"
        and confidence >= agent.tree.confidence_threshold
    ):
        context.variables.pop("proposal", None)
        chosen = agent.space.intent(proposal["options"][proposal["index"]])
        outcome = agent.tree.respond(
            chosen.name,
            CONTEXT_CONFIDENCE,
            {proposal["concept"]: proposal["value"]},
            context,
        )
        return act(
            agent, outcome, proposal["value"], recognition,
            CONTEXT_CONFIDENCE, context,
        )
    if intent_name == "negative" and confidence >= agent.tree.confidence_threshold:
        proposal["index"] += 1
        return propose_next(agent, context)
    # Anything else abandons the proposal and is processed normally.
    context.variables.pop("proposal", None)
    return None


# -- acting on tree outcomes ------------------------------------------------


def act(
    agent: "ConversationAgent",
    outcome: NodeOutcome,
    utterance: str,
    recognition: RecognitionResult,
    confidence: float,
    context: "ConversationContext",
) -> AgentResponse:
    """Dispatch one tree outcome through the acting functions — the same
    path the acting stages take, for callers that already hold an
    outcome (the proposal-acceptance flow)."""
    if outcome.kind == "management":
        return management_response(agent, outcome, utterance, context)
    if outcome.kind == "elicit":
        return elicit_response(agent, outcome, recognition, confidence, context)
    if outcome.kind == "keyword":
        return keyword_response(agent, outcome, recognition, confidence, context)
    if outcome.kind == "answer":
        return answer_response(agent, outcome, recognition, confidence, context)
    return fallback_act(agent, recognition, confidence, context)


def elicit_response(
    agent: "ConversationAgent",
    outcome: NodeOutcome,
    recognition: RecognitionResult,
    confidence: float,
    context: "ConversationContext",
) -> AgentResponse:
    """Prompt for the missing slot the tree asked for."""
    context.remember_entities(recognition.values)
    assert outcome.intent_name and outcome.elicit_concept
    context.begin_slot_filling(outcome.intent_name, outcome.elicit_concept)
    return AgentResponse(
        text=outcome.elicit_prompt or f"Which {outcome.elicit_concept}?",
        intent=outcome.intent_name,
        confidence=confidence,
        kind=ResponseKind.ELICIT,
        entities=dict(recognition.values),
        elicit_concept=outcome.elicit_concept,
    )


def keyword_response(
    agent: "ConversationAgent",
    outcome: NodeOutcome,
    recognition: RecognitionResult,
    confidence: float,
    context: "ConversationContext",
) -> AgentResponse:
    """Act on a keyword (entity-only) outcome: redirect or propose."""
    context.end_slot_filling()
    assert outcome.intent_name
    intent = agent.space.intent(outcome.intent_name)
    concept = intent.required_entities[0]
    value = outcome.bindings.get(concept) or next(
        iter(recognition.values.values()), None
    )
    if value:
        # "cogentin adverse effects": a keyword-style utterance that
        # still names a dependent concept is a recognizable lookup
        # request (§6.3, User 480 line 07) — answer it directly.
        redirected = redirect_keyword(
            agent, concept, value, recognition, confidence, context
        )
        if redirected is not None:
            return redirected
        started = start_proposal(agent, concept, value, context)
        if started is not None:
            return started
    return fallback_response(agent, confidence)


def redirect_keyword(
    agent: "ConversationAgent",
    concept: str,
    value: str,
    recognition: RecognitionResult,
    confidence: float,
    context: "ConversationContext",
) -> AgentResponse | None:
    """Answer a keyword utterance that also names a dependent concept."""
    mentioned = {c.lower() for c in recognition.concepts}
    if not mentioned:
        return None
    for intent in agent.space.intents:
        if intent.kind != "lookup" or not intent.result_concept:
            continue
        if intent.result_concept.lower() not in mentioned:
            continue
        if not any(
            r.lower() == concept.lower() for r in intent.required_entities
        ):
            continue
        outcome = agent.tree.respond(
            intent.name, CONTEXT_CONFIDENCE, {concept: value}, context
        )
        if outcome.kind == "answer":
            return answer_response(agent, outcome, recognition, confidence, context)
    return None


def fallback_act(
    agent: "ConversationAgent",
    recognition: RecognitionResult,
    confidence: float,
    context: "ConversationContext",
) -> AgentResponse:
    """The total fallback: a mentioned-but-unclassified entity still gets
    the keyword treatment (search-engine style users, §6.3)."""
    if recognition.values and not context.is_slot_filling:
        concept, value = next(iter(recognition.values.items()))
        started = start_proposal(agent, concept, value, context)
        if started is not None:
            return started
    return fallback_response(agent, confidence)


def fallback_response(agent: "ConversationAgent", confidence: float) -> AgentResponse:
    """The apologetic not-understood response."""
    return AgentResponse(
        text=(
            "I'm sorry, I didn't understand that. Try asking about the "
            f"{agent.domain} — say 'help' for examples."
        ),
        intent=None,
        confidence=confidence,
        kind=ResponseKind.FALLBACK,
    )


def management_response(
    agent: "ConversationAgent",
    outcome: NodeOutcome,
    utterance: str,
    context: "ConversationContext",
) -> AgentResponse:
    """Render the canned management reply, with the §6 repairs (help
    examples, paraphrase, definition lookup, abort reset)."""
    intent_name = outcome.intent_name or ""
    template = outcome.response_template or ""
    values: dict[str, Any] = {
        "agent_name": agent.agent_name,
        "domain": agent.domain,
        "last_response": context.last_response or "nothing yet",
    }
    if intent_name in ("help", "capabilities"):
        values["examples"] = example_questions(agent)
    if intent_name == "paraphrase_request":
        compact = paraphrase(context)
        if compact is not None:
            values["last_response"] = compact
    if intent_name == "definition_request":
        values["definition"] = definition_for(agent, utterance)
    if intent_name == "abort":
        context.reset()
    if template:
        try:
            text = render_template(template, values)
        except (DialogueError, ValueError):
            # An SME-edited management template can carry an unbound
            # variable past `repro check`; answer apologetically rather
            # than letting DialogueError kill the worker (X001).
            text = (
                "I'm sorry, I can't do that right now — say 'help' for "
                "examples."
            )
    else:
        text = ""
    return AgentResponse(
        text=text,
        intent=intent_name,
        confidence=CONTEXT_CONFIDENCE,
        kind=ResponseKind.MANAGEMENT,
    )


def paraphrase(context: "ConversationContext") -> str | None:
    """Re-render the last answer's rows compactly (pattern B2.0.0:
    a paraphrase is a reformulation, not a verbatim repeat)."""
    rows = context.variables.get("last_rows")
    if not rows:
        return None
    if context.variables.get("last_grouped"):
        return format_grouped_rows(rows, limit_per_group=3)
    return format_result_rows(rows, limit=3)


def example_questions(agent: "ConversationAgent", count: int = 3) -> str:
    """Real example questions drawn from the space's intents, so help
    text always reflects what this agent can actually answer."""
    examples = []
    for intent in agent.space.intents:
        if intent.kind in ("management", "keyword"):
            continue
        for example in agent.space.examples_for(intent.name):
            examples.append(f"'{example.utterance}'")
            break
        if len(examples) >= count:
            break
    return ", ".join(examples) if examples else "'help'"


def definition_for(agent: "ConversationAgent", utterance: str) -> str:
    """The glossary definition for the term the utterance asks about."""
    tokens = tokenize(utterance)
    # Longest glossary term mentioned in the utterance wins.
    best: tuple[int, str, str] | None = None
    for term, definition in agent.glossary.items():
        term_tokens = tokenize(term)
        if not term_tokens:
            continue
        joined = " ".join(term_tokens)
        if joined in " ".join(tokens):
            if best is None or len(term_tokens) > best[0]:
                best = (len(term_tokens), term, definition)
    if best is None:
        return (
            "I don't have a definition for that term, but you can ask "
            "about anything in the knowledge base."
        )
    _, term, definition = best
    capitalized = term[0].upper() + term[1:]
    return f"{capitalized} is {definition}"


def select_template(
    agent: "ConversationAgent",
    intent: Intent,
    bindings: dict[str, str],
    recognition: RecognitionResult,
) -> StructuredQueryTemplate | None:
    """Pick the most specific satisfied query template for the intent."""
    candidates = agent.templates.get(intent.name, [])
    if not candidates:
        return None
    # Union/inheritance lookups: a mentioned member concept picks its
    # augmentation template ("contra indications" under "Risk").  Only
    # pattern-generated template lists align 1:1 with the patterns.
    if not intent.custom_templates:
        for concept in recognition.concepts:
            for pattern, template in zip(intent.patterns, candidates):
                if (
                    pattern.augmented_from is not None
                    and pattern.result_concept.lower() == concept.lower()
                ):
                    return template
    # Otherwise the most specific fully-satisfied template wins: the
    # indirect pattern 2 when both keys are bound, the severity-
    # filtered interaction template when a severity was mentioned.
    bound = {k.lower() for k, v in bindings.items() if v}
    best = candidates[0]
    best_filters = {c.lower() for c in best.required_concepts()}
    for template in candidates:
        filters = {c.lower() for c in template.required_concepts()}
        if filters <= bound and len(filters) > len(best_filters):
            best = template
            best_filters = filters
    return best


#: Rows per streamed ``rows`` chunk (see :meth:`TurnState.emit_chunk`).
STREAM_ROW_BATCH = 8


def answer_response(
    agent: "ConversationAgent",
    outcome: NodeOutcome,
    recognition: RecognitionResult,
    confidence: float,
    context: "ConversationContext",
    chunk_sink: "Callable[[str, dict], None] | None" = None,
) -> AgentResponse:
    """Select a template, execute it against the KB, render the answer.

    With a ``chunk_sink`` installed (a streaming turn), the result rows
    are additionally emitted as ordered ``rows`` chunks of
    :data:`STREAM_ROW_BATCH` rows each, as soon as the KB query returns
    and before the answer text is rendered or the turn committed — the
    streaming client sees data while the rest of the turn completes.
    """
    assert outcome.intent_name
    intent = agent.space.intent(outcome.intent_name)
    bindings = {k: v for k, v in outcome.bindings.items() if v}
    context.remember_entities(recognition.values)
    context.end_slot_filling()
    template = select_template(agent, intent, bindings, recognition)
    if template is None:
        return AgentResponse(
            text=(
                "I understood the question but cannot answer it from the "
                "knowledge base yet."
            ),
            intent=intent.name,
            confidence=confidence,
            kind=ResponseKind.ANSWER_UNAVAILABLE,
        )
    try:
        result = template.execute(agent.database, bindings)
    except MissingBindingsError as exc:
        # Filters the template needs are missing; elicit the first
        # (the error names them all, so the loop converges).
        concept = exc.missing[0] if exc.missing else intent.required_entities[0]
        context.begin_slot_filling(intent.name, concept)
        return AgentResponse(
            text=f"For which {concept.lower()}?",
            intent=intent.name,
            confidence=confidence,
            kind=ResponseKind.ELICIT,
            elicit_concept=concept,
        )
    except (KBError, TemplateError):
        # Template SQL that no longer matches the re-published KB
        # (dropped column, renamed table, syntax slip in an SME edit):
        # `repro check` flags these at build time, but the serving
        # handler only catches EngineError, so anything escaping here
        # would kill the worker mid-commit (X001) — degrade gracefully.
        return AgentResponse(
            text=(
                "I understood the question but cannot answer it from the "
                "knowledge base yet."
            ),
            intent=intent.name,
            confidence=confidence,
            kind=ResponseKind.ANSWER_UNAVAILABLE,
        )
    if not result.rows:
        subject = intent.result_concept or "information"
        value_text = ", ".join(bindings.values()) or "that"
        return AgentResponse(
            text=f"I could not find {subject} for {value_text}.",
            intent=intent.name,
            confidence=confidence,
            kind=ResponseKind.ANSWER_EMPTY,
            entities=bindings,
            sql=template.sql,
        )
    if chunk_sink is not None:
        for start in range(0, len(result.rows), STREAM_ROW_BATCH):
            batch = result.rows[start:start + STREAM_ROW_BATCH]
            chunk_sink("rows", {
                "batch": start // STREAM_ROW_BATCH,
                "rows": [list(row) for row in batch],
            })
    if template.grouped:
        results_text = format_grouped_rows(result.rows)
    else:
        results_text = format_result_rows(result.rows)
    context.variables["last_rows"] = list(result.rows)
    context.variables["last_grouped"] = template.grouped
    if outcome.response_template:
        values = {context_key(k): v for k, v in bindings.items()}
        values["results"] = results_text
        try:
            text = render_template(outcome.response_template, values)
        except (DialogueError, ValueError):
            # An unbound variable or malformed format spec; `repro
            # check` flags these at build time, but an SME-edited
            # template can still slip through — answer plainly.
            text = f"Here is what I found: {results_text}"
    else:
        text = f"Here is what I found: {results_text}"
    return AgentResponse(
        text=text,
        intent=intent.name,
        confidence=confidence,
        kind=ResponseKind.ANSWER,
        entities=bindings,
        rows=list(result.rows),
        sql=template.sql,
    )


# ---------------------------------------------------------------------------
# The stages
# ---------------------------------------------------------------------------


class AgentStage(Stage):
    """A stage bound to one agent.

    Stages read the agent's components (classifier, recognizer, tree,
    database, ...) through the agent attribute at run time, so the
    serving layer's instrumentation proxies (query cache, classifier
    timing) keep working when they are swapped in.
    """

    def __init__(self, agent: "ConversationAgent") -> None:
        self.agent = agent


class Classify(AgentStage):
    """Intent classification + entity recognition + the gibberish guard."""

    name = "classify"

    def run(self, state: TurnState) -> AgentResponse | None:
        agent = self.agent
        analysis = state.analysis = agent.classifier.analyze(state.utterance)
        prediction = analysis.prediction
        state.recognition = agent.recognizer.recognize(analysis.utterance)
        intent_name: str | None = prediction.intent
        confidence = prediction.confidence
        # Gibberish guard: a mostly-out-of-vocabulary utterance with no
        # recognizable entity must not trigger any intent ("apfjhd", §7.2).
        if (
            not state.recognition.values
            and not state.recognition.ambiguous
            and agent.classifier.vectorizer.known_word_fraction(
                analysis.utterance
            )
            < 0.5
        ):
            intent_name, confidence = None, 0.0
            state.annotate(gibberish=True)
        state.adopt(intent_name, confidence)
        state.annotate(
            intent=prediction.intent,
            confidence=prediction.confidence,
            entities=len(state.recognition.values),
            concepts=len(state.recognition.concepts),
        )
        return None


class ManagementRescue(AgentStage):
    """A weakly-classified *management* intent yields to a domain
    reading when the utterance carries domain entities and concepts
    ("what indication is treated by X" is not a definition request)."""

    name = "management_rescue"

    def run(self, state: TurnState) -> AgentResponse | None:
        agent = self.agent
        if (
            state.intent is not None
            and domain_intent(agent, state.intent) is None
            and state.confidence < 0.5
            and state.recognition.values
            and state.recognition.concepts
        ):
            rescued = rescue_low_confidence(agent, state.analysis, state.recognition)
            if rescued is not None:
                state.adopt(*rescued)
                state.annotate(rescued=rescued[0])
        return None


class ResolveDisambiguation(AgentStage):
    """A pending disambiguation ("Did you mean ...?") resolves first."""

    name = "resolve_disambiguation"

    def run(self, state: TurnState) -> AgentResponse | None:
        resolved = resolve_disambiguation(
            self.agent, state.utterance, state.recognition, state.context
        )
        if resolved is not None:
            state.adopt(*resolved)
            state.annotate(resolved=resolved[0])
        return None


class Proposal(AgentStage):
    """A pending keyword proposal consumes an affirmative/negative."""

    name = "proposal"

    def run(self, state: TurnState) -> AgentResponse | None:
        return handle_proposal(
            self.agent, state.intent, state.confidence,
            state.recognition, state.context,
        )


class SlotFill(AgentStage):
    """A bare answer to an elicitation adopts the pending intent."""

    name = "slot_fill"

    def run(self, state: TurnState) -> AgentResponse | None:
        context = state.context
        if context.is_slot_filling:
            value = slot_answer(
                self.agent, state.analysis.utterance, state.recognition, context
            )
            if value is not None:
                state.recognition.values[context.pending_entity] = value
                state.adopt(context.pending_intent, CONTEXT_CONFIDENCE)
                state.annotate(filled=context.pending_entity, value=value)
        return None


class ContextReinterpret(AgentStage):
    """Entity mentions related to the prior request operate on it
    instead of starting over (§6.3 line 06)."""

    name = "context_reinterpret"

    def run(self, state: TurnState) -> AgentResponse | None:
        agent = self.agent
        recognition = state.recognition
        if not recognition.values:
            return None
        if recognition.concepts:
            # A concept mention ("dosage", "adverse effects") signals a new
            # request, not an operation on the previous one.
            return None
        current = domain_intent(agent, state.context.current_intent)
        if current is None or current.kind == "keyword":
            return None
        classified = domain_intent(agent, state.intent)
        classified_is_weak = (
            state.confidence < TRUST_THRESHOLD
            or classified is None
            or classified.kind == "keyword"
        )
        if not classified_is_weak:
            return None
        relevant = set(
            c.lower() for c in current.required_entities + current.optional_entities
        )
        mentioned = {c.lower() for c in recognition.values}
        if mentioned & relevant:
            state.adopt(current.name, CONTEXT_CONFIDENCE)
            state.annotate(reinterpreted=current.name)
        return None


class EntityRescue(AgentStage):
    """When the classifier is unsure, corroborate its top candidates
    against the recognized entities and concept mentions (the
    "intent + entity model" of §6.3)."""

    name = "entity_rescue"

    def run(self, state: TurnState) -> AgentResponse | None:
        agent = self.agent
        if state.confidence < agent.tree.confidence_threshold and (
            state.recognition.values or state.recognition.concepts
        ):
            rescued = rescue_low_confidence(agent, state.analysis, state.recognition)
            if rescued is not None:
                state.adopt(*rescued)
                state.annotate(rescued=rescued[0])
        return None


class KeywordRoute(AgentStage):
    """An entity-only utterance with no claiming context routes to the
    keyword intent regardless of the classifier ("cogentin", §6.3 — the
    conversation space is intent + entity, a bare entity must trigger
    the elicitation proposal, not an arbitrary lookup)."""

    name = "keyword_route"

    def run(self, state: TurnState) -> AgentResponse | None:
        agent = self.agent
        if (
            state.confidence != CONTEXT_CONFIDENCE
            and not state.context.is_slot_filling
        ):
            whole = agent.recognizer.whole_utterance_instance(
                state.analysis.utterance
            )
            if whole is not None:
                concept, _value = whole
                keyword_name = keyword_intent_name(concept)
                if agent.space.has_intent(keyword_name):
                    state.adopt(
                        agent.space.intent(keyword_name).name,
                        max(state.confidence, agent.tree.confidence_threshold),
                    )
                    state.annotate(keyword=concept)
        return None


class SlotArbitration(AgentStage):
    """A confident classification that is missing required entities
    yields to a close runner-up whose result concept was named and
    whose slots the utterance fills."""

    name = "slot_arbitration"

    def run(self, state: TurnState) -> AgentResponse | None:
        agent = self.agent
        current = domain_intent(agent, state.intent)
        if current is None or current.kind == "keyword":
            return None
        merged = {c.lower() for c in state.context.entities}
        merged |= {c.lower() for c in state.recognition.values}
        required = {c.lower() for c in current.required_entities}
        if required <= merged:
            return None  # the classified intent can proceed — keep it
        mentioned = {c.lower() for c in state.recognition.concepts}
        recognized = {c.lower() for c in state.recognition.values}
        for candidate in state.analysis.top_k(3):
            if candidate.intent == state.intent:
                continue
            other = domain_intent(agent, candidate.intent)
            if other is None or other.kind == "keyword" or not other.patterns:
                continue
            if candidate.confidence < state.confidence * 0.25:
                break  # too far behind to overrule
            other_required = {c.lower() for c in other.required_entities}
            result_mentioned = (
                other.result_concept is not None
                and other.result_concept.lower() in mentioned
            )
            if result_mentioned and other_required and other_required <= recognized:
                state.adopt(
                    other.name,
                    max(candidate.confidence, agent.tree.confidence_threshold),
                )
                state.annotate(arbitrated=other.name)
                return None
        return None


class AskDisambiguation(AgentStage):
    """Unresolved ambiguity on a needed concept: ask before answering."""

    name = "ask_disambiguation"

    def run(self, state: TurnState) -> AgentResponse | None:
        recognition = state.recognition
        if recognition.ambiguous and not recognition.values:
            return ask_disambiguation(
                self.agent, recognition, state.intent,
                state.confidence, state.context,
            )
        return None


class TreeTraversal(AgentStage):
    """Dialogue-tree traversal (§5): produce the outcome to act on."""

    name = "tree"

    def run(self, state: TurnState) -> AgentResponse | None:
        state.outcome = self.agent.tree.respond(
            state.intent, state.confidence,
            state.recognition.values, state.context,
        )
        state.annotate(node=state.outcome.node_name, outcome=state.outcome.kind)
        return None


class _ActStage(AgentStage):
    """Base for the acting stages: fires on one tree-outcome kind."""

    outcome_kind: str = ""

    def run(self, state: TurnState) -> AgentResponse | None:
        if state.outcome is None or state.outcome.kind != self.outcome_kind:
            return None
        return self.handle(state)

    def handle(self, state: TurnState) -> AgentResponse:
        raise NotImplementedError


class Management(_ActStage):
    """Acts on a ``management`` outcome (canned replies + repairs)."""

    name = "management"
    outcome_kind = "management"

    def handle(self, state: TurnState) -> AgentResponse:
        return management_response(
            self.agent, state.outcome, state.utterance, state.context
        )


class Elicit(_ActStage):
    """Acts on an ``elicit`` outcome (slot-filling prompt)."""

    name = "elicit"
    outcome_kind = "elicit"

    def handle(self, state: TurnState) -> AgentResponse:
        return elicit_response(
            self.agent, state.outcome, state.recognition,
            state.confidence, state.context,
        )


class KeywordRedirect(_ActStage):
    """Acts on a ``keyword`` outcome: concept-carrying redirect, else
    the proposal flow."""

    name = "keyword"
    outcome_kind = "keyword"

    def handle(self, state: TurnState) -> AgentResponse:
        return keyword_response(
            self.agent, state.outcome, state.recognition,
            state.confidence, state.context,
        )


class Answer(_ActStage):
    """Acts on an ``answer`` outcome: template selection, query
    execution against the KB, response generation."""

    name = "answer"
    outcome_kind = "answer"

    def handle(self, state: TurnState) -> AgentResponse:
        return answer_response(
            self.agent, state.outcome, state.recognition,
            state.confidence, state.context,
            chunk_sink=state.chunk_sink,
        )


class Fallback(AgentStage):
    """Total last stage: entity-mention proposal or the apology."""

    name = "fallback"

    def run(self, state: TurnState) -> AgentResponse | None:
        return fallback_act(
            self.agent, state.recognition, state.confidence, state.context
        )


def default_stages(agent: "ConversationAgent") -> list[Stage]:
    """The behaviour-preserving stage order for one agent."""
    return [
        Classify(agent),
        ManagementRescue(agent),
        ResolveDisambiguation(agent),
        Proposal(agent),
        SlotFill(agent),
        ContextReinterpret(agent),
        EntityRescue(agent),
        KeywordRoute(agent),
        SlotArbitration(agent),
        AskDisambiguation(agent),
        TreeTraversal(agent),
        Management(agent),
        Elicit(agent),
        KeywordRedirect(agent),
        Answer(agent),
        Fallback(agent),
    ]
