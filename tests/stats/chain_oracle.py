"""Per-offset reference scorers: one Python walk of each candidate's
fall-through chain, the definition the array kernels must reproduce
bit for bit."""

import math

import numpy as np

from repro.analysis import behavior as b
from repro.isa.columns import is_zeroing_idiom
from repro.isa.opcodes import FlowKind
from repro.isa.registers import RAX, RBP, RSP
from repro.stats.ngram import START, token_of
from repro.stats.scoring import UNDECODABLE_SCORE
from repro.superset.superset import CHAIN_WINDOW


def log_prob(model, token, context):
    """The interpolated trigram formula, one (token, context) at a time."""
    w3, w2, w1, w0 = model.weights
    t1, t2 = context
    p = w0 / model.vocabulary_size
    if model.total:
        p += w1 * model.unigrams.get(token, 0) / model.total
    c2 = model.bigram_context.get(t2, 0)
    if c2:
        p += w2 * model.bigrams.get((t2, token), 0) / c2
    c3 = model.trigram_context.get((t1, t2), 0)
    if c3:
        p += w3 * model.trigrams.get((t1, t2, token), 0) / c3
    return math.log(p)


def defuse_counts(chain):
    """(pairs, register anomalies, flag pairs, flag anomalies)."""
    defined, flags_defined = set(), False
    pairs = anomalies = flag_pairs = flag_anomalies = 0
    for ins in chain:
        for register in (frozenset() if is_zeroing_idiom(ins)
                         else ins.reads):
            if register in defined:
                pairs += 1
            elif register not in b.CONVENTIONALLY_LIVE:
                anomalies += 1
        if ins.reads_flags:
            flag_pairs += flags_defined
            flag_anomalies += not flags_defined
        flags_defined |= ins.writes_flags
        if ins.flow in (FlowKind.CALL, FlowKind.ICALL):
            defined = {RAX, RSP, RBP} | (defined & b.CONVENTIONALLY_LIVE)
        else:
            defined |= ins.writes
    return pairs, anomalies, flag_pairs, flag_anomalies


def behavior_score(superset, offset):
    chain = superset.fallthrough_chain(offset, CHAIN_WINDOW)
    if not chain:
        return b.INVALID_FALLTHROUGH
    terminated = not chain[-1].falls_through
    total = 0.0
    if not terminated and len(chain) < CHAIN_WINDOW:
        nxt = chain[-1].end
        if nxt < len(superset) and not superset.is_valid(nxt):
            total += b.INVALID_FALLTHROUGH
    pairs, anomalies, flag_pairs, flag_anomalies = defuse_counts(chain)
    total += b.TRAP_IN_CHAIN * sum(ins.flow in (FlowKind.TRAP, FlowKind.HALT)
                                   for ins in chain)
    total += b.RARE_INSTRUCTION * sum(ins.rare for ins in chain)
    total += b.DEFUSE_PAIR * pairs
    total += b.FLAG_PAIR * flag_pairs
    total += b.REGISTER_ANOMALY * anomalies
    total += b.FLAG_ANOMALY * flag_anomalies
    if terminated:
        total += b.TERMINATED_CHAIN
    return total / len(chain)


def statistical_scores(scorer, superset):
    text = superset.text
    data_lp_byte = np.array([scorer.data_model.log_prob_byte(x) for x in text])
    penalty = scorer._ascii_penalty(text)
    scores = np.full(len(text), UNDECODABLE_SCORE)
    for offset in superset.valid_offsets:
        chain = superset.fallthrough_chain(offset, CHAIN_WINDOW)
        context, code_lp = (START, START), 0.0
        for ins in chain:
            code_lp += log_prob(scorer.code_model, token_of(ins), context)
            context = (context[1], token_of(ins))
        span = chain[-1].end - offset
        data_lp = data_lp_byte[offset:offset + span].sum()
        scores[offset] = (code_lp - data_lp) / span - penalty[offset]
    return scores


def behavior_scores(superset):
    return np.array([behavior_score(superset, o)
                     for o in range(len(superset))])
