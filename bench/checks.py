"""Output checks of the benchmark, run outside the timed phase.

Each check takes a program output in plain form (counts, rule names, terms,
report text), so the benchmark's own tests can hand it a deliberately wrong
output.  The query counts are compared with their oracle counts directly in
`workloads.ModelQueries.verdict`.
"""

from __future__ import annotations


def sim_pass_ok(task_count: int, leftover_deletes: int) -> bool:
    """After a full pass exactly one task instance is active and the sweep
    layer has left no finished task behind."""
    return task_count == 1 and leftover_deletes == 0


def sim_trace_ok(fired: list) -> bool:
    """The rules applied in one seeded simulation, in order: `Start` fires
    exactly once, first, and every `FireTransition` is matched by one
    `DeleteTask` of the task it finished, never more."""
    if fired.count("Start") != 1 or fired[0] != "Start":
        return False
    open_tasks = 0
    for rule in fired:
        if rule == "FireTransition":
            open_tasks += 1
        elif rule == "DeleteTask":
            open_tasks -= 1
            if open_tasks < 0:
                return False
    return open_tasks == 0


def formula_ok(result, oracle, library) -> bool:
    """The rule-driven monitor step agrees with the term-level oracle and
    with the library path."""
    return result == oracle == library


def pair_statuses(report: str) -> dict:
    """Candidate number -> {level pair: status} from a binding report."""
    out: dict = {}
    candidate = None
    for line in report.splitlines():
        line = line.strip()
        if line.startswith("candidate"):
            candidate = int(line.split()[1].rstrip(":"))
            out[candidate] = {}
        elif line.startswith("pair") and candidate is not None:
            pair, _, rest = line.partition(":")
            out[candidate][pair.replace("pair", "").strip()] = rest.split()[0]
    return out


def transfer_report_ok(report: str) -> bool:
    """The chain report of the corrected `TransferPart` on `hammer_config`:
    some candidate passes every level pair, with (2,3) a strict inclusion."""
    valid = [
        pairs
        for pairs in pair_statuses(report).values()
        if pairs and all(s in ("equality", "strict-inclusion") for s in pairs.values())
    ]
    return any(pairs.get("(2,3)") == "strict-inclusion" for pairs in valid)
