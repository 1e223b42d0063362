"""Optimal alignments: costs, projections, profiles, search budget."""
import hashlib
import json
import random
import re

import pytest

from alarmsift import alignment as alignment_module
from alarmsift.alignment import (
    Aligner,
    Alignment,
    MoveKind,
    align,
    profile_flow,
    profile_reference,
    read_profile_csv,
    write_profile_csv,
)
from alarmsift.discovery import discover, tree_to_net, leaf, ProcessTree, SEQUENCE
from alarmsift.errors import BudgetError, DataError, SchemaError
from alarmsift.events import Fragment
from alarmsift.petri import PetriNet, Transition, export_pnml, import_pnml

from reference_astar import reference_align
from treegen import (
    firing_rule, log_projection, oracle_align_cost, perturb_trace, random_tree, sample_trace,
)

HANDSHAKE = ("C_to_S_SYN", "S_to_C_SYN", "C_to_S_ACK", "S_to_C_ACK+PSH", "C_to_S_ACK")


def handshake_net() -> PetriNet:
    """Sequence net over the split-handshake pattern."""
    return tree_to_net(ProcessTree(op=SEQUENCE, children=tuple(leaf(e) for e in HANDSHAKE)))


def test_handshake_missing_ack_costs_one_model_move():
    trace = ("C_to_S_SYN", "S_to_C_SYN", "S_to_C_ACK+PSH", "C_to_S_ACK")
    result = align(handshake_net(), trace)
    assert result.cost == 1
    non_sync = result.misaligned()
    assert len(non_sync) == 1
    assert (non_sync[0].kind, non_sync[0].label) == (MoveKind.MODEL_ONLY, "C_to_S_ACK")
    assert log_projection(result) == trace


def test_in_language_trace_aligns_all_sync():
    result = align(handshake_net(), HANDSHAKE)
    assert result.cost == 0
    assert all(m.kind is MoveKind.SYNCHRONOUS for m in result.moves)


def test_foreign_labels_forced_to_log_moves():
    net = discover([("a", "b")] * 3)
    result = align(net, ("a", "zz", "b"))
    assert result.cost == 1
    kinds = [m.kind for m in result.moves]
    assert kinds == [MoveKind.SYNCHRONOUS, MoveKind.LOG_ONLY, MoveKind.SYNCHRONOUS]


def _replay_model_projection(net: PetriNet, alignment: Alignment) -> bool:
    fire = firing_rule(net)
    marking = net.initial_marking
    for move in alignment.moves:
        if move.kind is MoveKind.LOG_ONLY:
            continue
        step = {t.tid: (t, nxt) for t, nxt in fire(marking)}.get(move.tid)
        if step is None or step[0].label != move.label:
            return False
        marking = step[1]
    return marking == net.final_marking


# sha256 of the 40 move sequences below, one JSON line of [kind, label, tid]
# triples each. Equal-cost alignments differ only in the tie-break, so this
# pins the order in which align generates successors (silent ones in tid
# order).
RANDOM_INSTANCES_MOVES_SHA256 = "e3c114614be5dc8ecb5fd8cc01ae765af7a4b1f25a034a79c3dbaa03a557a2bb"


def test_projections_hold_on_random_instances():
    rng = random.Random(11)
    digest = hashlib.sha256()
    checked = 0
    for _ in range(40):
        tree = random_tree(rng, list("abcd"), max_depth=2)
        net = tree_to_net(tree)
        base = sample_trace(tree, rng)
        trace = perturb_trace(base, rng, list("abcd"))
        result = align(net, trace)
        assert log_projection(result) == tuple(trace)
        assert _replay_model_projection(net, result)
        moves = [[m.kind.value, m.label, m.tid] for m in result.moves]
        digest.update(json.dumps(moves).encode() + b"\n")
        checked += 1
    assert checked == 40
    assert digest.hexdigest() == RANDOM_INSTANCES_MOVES_SHA256


def test_a_net_aligns_alike_however_declared_or_loaded(tmp_path):
    # A mined net, the net export_pnml and import_pnml give back, and the
    # same net declared in reverse are one net: one key, the same moves.
    rng = random.Random(25)
    path = tmp_path / "net.pnml"
    for _ in range(200):
        tree = random_tree(rng, list("abcde"))
        net = discover([sample_trace(tree, rng) for _ in range(8)])
        export_pnml(net, path)
        loaded = import_pnml(path)
        reversed_net = PetriNet(net.places[::-1], net.transitions[::-1], net.arcs[::-1],
                                net.initial_marking, net.final_marking)
        assert loaded.key == net.key == reversed_net.key
        for _ in range(8):
            trace = sample_trace(tree, rng)
            if rng.random() < 0.5:
                trace = perturb_trace(trace, rng, list("abcde"))
            expected = align(net, trace)
            assert align(loaded, trace) == expected == align(reversed_net, trace)


def _parallel_net(first: Transition, second: Transition) -> PetriNet:
    """split -> (first || second) -> join; transitions sit in tid order."""
    a, b = first.tid, second.tid
    return PetriNet(
        ["i", "p1", "p2", "q1", "q2", "o"],
        [first, second, Transition("split"), Transition("join")],
        [("i", "split"), ("split", "p1"), ("split", "p2"), ("p1", a), (a, "q1"),
         ("p2", b), (b, "q2"), ("q1", "join"), ("q2", "join"), ("join", "o")],
        {"i": 1}, {"o": 1},
    )


def _sync_or_skip_net() -> PetriNet:
    """Choice between the sequence a c d and a lone b."""
    return PetriNet(
        ["i", "p1", "p2", "o"],
        [Transition("t_b", "b"), Transition("t_a", "a"), Transition("t_c", "c"),
         Transition("t_d", "d")],
        [("i", "t_a"), ("t_a", "p1"), ("p1", "t_c"), ("t_c", "p2"), ("p2", "t_d"),
         ("t_d", "o"), ("i", "t_b"), ("t_b", "o")],
        {"i": 1}, {"o": 1},
    )


SILENT, MODEL, SYNC, LOG = (
    MoveKind.MODEL_SILENT, MoveKind.MODEL_ONLY, MoveKind.SYNCHRONOUS, MoveKind.LOG_ONLY,
)


@pytest.mark.parametrize("net, trace, expected", [
    # Silent before visible, though the visible transition has the lower index.
    (_parallel_net(Transition("t_a", "a"), Transition("tau")), (),
     [(SILENT, None, "split"), (SILENT, None, "tau"), (MODEL, "a", "t_a"),
      (SILENT, None, "join")]),
    # Visible model moves by label, not by index: t_1 (b) precedes t_2 (a).
    (_parallel_net(Transition("t_1", "b"), Transition("t_2", "a")), (),
     [(SILENT, None, "split"), (MODEL, "a", "t_2"), (MODEL, "b", "t_1"),
      (SILENT, None, "join")]),
    # Cost 2 either way: sync a + model c + model d, or model b + log a.
    (_sync_or_skip_net(), ("a",), [(MODEL, "b", "t_b"), (LOG, "a", None)]),
], ids=["silent-vs-visible", "visible-by-label", "sync-vs-model-and-log"])
def test_equal_cost_ties_resolve_deterministically(net, trace, expected):
    result = align(net, trace)
    assert [(m.kind, m.label, m.tid) for m in result.moves] == expected
    assert result.cost == sum(kind in (MODEL, LOG) for kind, _, _ in expected)


def test_cost_matches_bruteforce_oracle_quick():
    rng = random.Random(3)
    for _ in range(60):
        tree = random_tree(rng, list("abcd"), max_depth=2)
        net = tree_to_net(tree)
        if len(net.transitions) > 8:
            continue
        trace = perturb_trace(sample_trace(tree, rng), rng, list("abcd"))
        expected = oracle_align_cost(net, trace)
        assert expected is not None
        assert align(net, trace).cost == expected


def test_budget_error_carries_lower_bound():
    net = discover([("a", "b", "c", "d")] * 2)
    with pytest.raises(BudgetError) as err:
        align(net, ("d", "c", "b", "a"), budget=2)
    assert err.value.cost_lower_bound is not None
    assert err.value.cost_lower_bound >= 0


def test_unreachable_final_marking_is_a_model_error():
    net = PetriNet(
        places=["p0", "p1"],
        transitions=[Transition("t", "a")],
        arcs=[("p0", "t"), ("t", "p0")],
        initial_marking={"p0": 1},
        final_marking={"p1": 1},
    )
    with pytest.raises(DataError):
        align(net, ("a",))


def _frag(flow_id, state, index, events):
    return Fragment(flow_id=flow_id, state=state, index=index, events=tuple(events))


def test_reference_profile_perfect_replay_is_zero():
    net = discover([("a", "b")] * 4)
    per_flow = [[_frag("f1", 0, 0, ("a", "b"))], [_frag("f2", 0, 0, ("a", "b"))]]
    assert profile_reference(per_flow, Aligner({0: net})) == {}


def test_reference_profile_averages_over_source_traces():
    net = discover([("syn", "synack", "ack")] * 4)
    per_flow = [
        [_frag("f1", 0, 0, ("syn", "synack", "ack"))],
        [_frag("f2", 0, 0, ("syn", "synack"))],  # one model-only "ack"
    ]
    profile = profile_reference(per_flow, Aligner({0: net}))
    assert profile == {"ack": 0.5}


def test_reference_profile_missing_net_is_an_error():
    with pytest.raises(DataError):
        profile_reference([[_frag("f1", 0, 0, ("a",))]], Aligner({}))


def test_flow_profile_counts_raw_and_flags_missing_net():
    net = discover([("a", "b")] * 4)
    frags = [
        _frag("f1", 0, 0, ("a", "b")),
        _frag("f1", 1, 1, ("x", "y")),  # state 1 has no net
    ]
    with pytest.raises(DataError, match="no net for state 1"):
        profile_flow(frags, Aligner({0: net}))
    profile, aligned = profile_flow(frags, Aligner({0: net, 1: discover([("x",)])}))
    assert profile == {"y": 1.0}
    assert aligned[1][1].cost == 1


def test_flow_profile_misaligned_pushes():
    net = discover([("psh", "ack")] * 4)
    frags = [_frag("f1", 0, 0, ("psh", "psh", "psh", "ack"))]
    profile, _ = profile_flow(frags, Aligner({0: net}))
    assert sum(profile.values()) == align(net, ("psh", "psh", "psh", "ack")).cost


def test_profile_linearity_over_traces():
    net = discover([("a", "b"), ("a", "b", "c")])
    traces = [("a", "b"), ("a", "c"), ("b", "b", "zz"), ("c",)]
    per_flow = [[_frag(f"f{i}", 0, 0, t)] for i, t in enumerate(traces)]
    combined = profile_reference(per_flow, Aligner({0: net}))
    per_trace = []
    for i, t in enumerate(traces):
        p, _ = profile_flow([_frag(f"f{i}", 0, 0, t)], Aligner({0: net}))
        per_trace.append(p)
    labels = {k for p in per_trace for k in p}
    for label in labels:
        mean = sum(p.get(label, 0.0) for p in per_trace) / len(traces)
        assert combined.get(label, 0.0) == pytest.approx(mean)


def test_zero_cost_iff_zero_profile_contribution():
    net = discover([("a", "b"), ("b", "a")])
    for trace in [("a", "b"), ("b", "a"), ("a", "a"), ("a", "b", "zz")]:
        result = align(net, trace)
        profile, _ = profile_flow([_frag("f", 0, 0, trace)], Aligner({0: net}))
        assert (result.cost == 0) == (sum(profile.values()) == 0)
        assert sum(profile.values()) == result.cost


def test_silent_moves_never_counted():
    net = discover([("a",), ()])  # xor with tau branch
    profile, aligned = profile_flow([_frag("f", 0, 0, ())], Aligner({0: net}))
    assert profile == {}
    assert any(m.kind is MoveKind.MODEL_SILENT for m in aligned[0][1].moves)


def _counting_align(monkeypatch):
    """Replaces the module-global align, which Aligner calls on a miss,
    with a wrapper that records each search's (net, trace)."""
    calls = []

    def counting(net, trace, budget):
        calls.append((net, tuple(trace)))
        return align(net, trace, budget)

    monkeypatch.setattr(alignment_module, "align", counting)
    return calls


def test_aligner_searches_each_distinct_fragment_once(monkeypatch):
    calls = _counting_align(monkeypatch)
    nets = {0: discover([("a", "b")] * 2), 1: discover([("x",)])}
    aligner = Aligner(nets)
    frags = [
        _frag("f1", 0, 0, ("a", "b")),
        _frag("f2", 0, 0, ("a", "b")),
        _frag("f1", 1, 1, ("a", "b")),  # same events, other state
        _frag("f3", 0, 0, ("b",)),
        _frag("f4", 1, 0, ("a", "b")),
    ]
    results = [aligner(f) for f in frags]
    assert calls == [(nets[0], ("a", "b")), (nets[1], ("a", "b")), (nets[0], ("b",))]
    assert results[0] is results[1] and results[2] is results[4]
    assert [r.cost for r in results] == [0, 0, 3, 1, 3]


def test_aligner_never_caches_a_budget_error(monkeypatch):
    calls = _counting_align(monkeypatch)
    net = discover([("a", "b", "c", "d")] * 2)
    frag = _frag("f", 0, 0, ("d", "c", "b", "a"))
    tight = Aligner({0: net}, budget=2)
    for _ in range(2):
        with pytest.raises(BudgetError):
            tight(frag)
    assert len(calls) == 2
    assert Aligner({0: net}, budget=1000)(frag) == align(net, frag.events)


def test_aligner_state_without_net_is_an_error():
    with pytest.raises(DataError, match="no net for state 1"):
        Aligner({0: discover([("a",)])})(_frag("f", 1, 0, ("a",)))


def test_aligner_results_equal_fresh_searches_in_any_order():
    rng = random.Random(23)
    trees, frags = {}, []
    for state in range(4):
        trees[state] = random_tree(rng, list("abcd"), max_depth=2)
        bases = [sample_trace(trees[state], rng) for _ in range(3)]
        for i in range(12):
            trace = rng.choice(bases)
            if rng.random() < 0.5:
                trace = perturb_trace(trace, rng, list("abcd"))
            frags.append(_frag(f"f{i}", state, 0, trace))
    # Each expected result comes from a cold net, searched on its own.
    expected = {
        (f.state, f.events): align(tree_to_net(trees[f.state]), f.events) for f in frags
    }
    assert len(expected) < len(frags)
    nets = {state: tree_to_net(tree) for state, tree in trees.items()}
    for _ in range(3):
        rng.shuffle(frags)
        aligner = Aligner(nets)
        for frag in frags + frags:
            assert aligner(frag) == expected[frag.state, frag.events]


def _duplicate_label_net() -> PetriNet:
    """Two a-transitions open a c branch and a b branch; a silent skip and
    a silent redo around the b branch, and a second b on the c branch."""
    return PetriNet(
        ["i", "p1", "p2", "p3", "o"],
        [Transition("t_a2", "a"), Transition("t_a1", "a"), Transition("t_b", "b"),
         Transition("t_c", "c"), Transition("t_b2", "b"), Transition("skip"),
         Transition("redo")],
        [("i", "t_a1"), ("t_a1", "p1"), ("p1", "t_b"), ("t_b", "o"),
         ("p1", "skip"), ("skip", "o"), ("o", "redo"), ("redo", "p1"),
         ("i", "t_a2"), ("t_a2", "p2"), ("p2", "t_c"), ("t_c", "p3"),
         ("p3", "t_b2"), ("t_b2", "o")],
        {"i": 1}, {"o": 1},
    )


def _oracle_instances():
    rng = random.Random(29)
    for _ in range(120):
        tree = random_tree(rng, list("abc"), max_depth=3)
        trace = sample_trace(tree, rng)
        if rng.random() < 0.7:
            trace = perturb_trace(trace, rng, list("abc"))
        yield tree_to_net(tree), trace
    hand_built = [
        _duplicate_label_net(), _sync_or_skip_net(),
        _parallel_net(Transition("t_a", "a"), Transition("tau")),
        _parallel_net(Transition("t_a", "a"), Transition("t_a2", "a")),
    ]
    traces = [(), ("a",), ("b",), ("a", "b"), ("b", "a"), ("a", "c", "b"),
              ("a", "b", "b", "zz1"), ("c", "a", "a", "d")]
    for net in hand_built:
        for trace in traces:
            yield net, trace


def _outcome(search, net, trace, budget):
    try:
        return search(net, trace, budget)
    except BudgetError as err:
        return ("budget", err.cost_lower_bound)


def test_align_breaks_ties_and_budgets_as_the_reference_search():
    # reference_astar keeps the search that built each successor tuple and
    # looked its cost up by kind; the move tables must change neither the
    # pop order nor the expansion count.
    budget_errors = 0
    for net, trace in _oracle_instances():
        assert align(net, trace) == reference_align(net, trace)
        for budget in (0, 1, 2, 3, 5, 8, 13, 21):
            expected = _outcome(reference_align, net, trace, budget)
            assert _outcome(align, net, trace, budget) == expected
            budget_errors += isinstance(expected, tuple)
    assert budget_errors > 100


def test_shared_memo_shares_equal_nets_and_keeps_budgets_apart(monkeypatch):
    # Two a-transitions tie. A net keeps them in tid order, whatever order
    # they were declared in, so equal nets align alike and share one result.
    def choice(places, tids, arcs):
        return PetriNet(places, [Transition(tid, "a") for tid in tids], arcs, {"i": 1}, {"o": 1})

    arcs = [("i", "t1"), ("t1", "o"), ("i", "t2"), ("t2", "o")]
    first = choice(["i", "o"], ["t1", "t2"], arcs)
    second = choice(["o", "i"], ["t2", "t1"], arcs[::-1])
    assert first == second and first.key == second.key
    assert second.transitions == first.transitions == (Transition("t1", "a"), Transition("t2", "a"))
    frag = _frag("f", 0, 0, ("a",))
    fresh = align(first, frag.events)
    assert align(second, frag.events) == fresh and fresh.moves[0].tid == "t1"
    calls = _counting_align(monkeypatch)
    memo = {}
    for net in (first, second, choice(["i", "o"], ["t1", "t2"], arcs)):
        assert Aligner({0: net}, memo=memo)(frag) == fresh
    assert [id(net) for net, _ in calls] == [id(first)]  # one search for equal nets
    assert Aligner({0: second}, budget=5, memo=memo)(frag) == fresh
    assert len(calls) == 2  # another budget is another key


def test_profile_csv_round_trip(tmp_path):
    profile = {"C_to_S_ACK": 0.5, "S_to_C_ACK+PSH": 2.0}
    path = tmp_path / "profile.csv"
    write_profile_csv(profile, path)
    assert read_profile_csv(path) == profile


def test_profile_csv_rejects_a_repeated_event_type(tmp_path):
    path = tmp_path / "profile.csv"
    write_profile_csv({"C_to_S_ACK": 1.0}, path)
    with open(path, "a") as fh:
        fh.write("C_to_S_ACK,5.0\n")
    message = f"{path}: line 4: repeated event type 'C_to_S_ACK'"
    with pytest.raises(SchemaError, match=re.escape(message)):
        read_profile_csv(path)
