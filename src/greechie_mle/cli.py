"""Command-line surface.

Subcommands: validate (structural conditions), classify (decomposition
tree and solvability verdict), estimate (maximum likelihood from
counts), sample (synthetic counts from a known truth), and oracle-check
(estimate vs. brute-force dominance).  Input is a single JSON document;
results go to stdout (JSON or text per --format), diagnostics and
errors to stderr.

Exit codes: 0 success; 1 validation or estimation rejected (failed
conditions, an operation with no observed outcome, invalid
true_probs/policy); 2 unparseable or malformed input; 3 no closed form
under --method closed; 4 a solver, on either --self-check route, could
not produce a feasible estimate (nonconvergence, an infeasible
assignment); 5 dominance or self-check disagreement.
GREECHIE_MLE_LOG=<level> turns on stderr logging.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from .closed_form import estimate
from .decompose import build_plan, plan_summary, plan_verdict
from .diagram import (
    NORMALIZATION_TOL,
    GreechieDiagram,
    Violation,
    build_diagram,
    check_frequencies,
    log_likelihood,
    validate_diagram,
)
from .errors import DiagramError, EstimationError, GreechieError, NoClosedForm
from .oracle import OracleBudget, brute_force_mle
from .sampler import OperationPolicy, sample_outcomes

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_PARSE = 2
EXIT_NO_CLOSED_FORM = 3
EXIT_ESTIMATION = 4
EXIT_DOMINANCE = 5

_DOMINANCE_SLACK = 1e-9
_SELF_CHECK_TOL = 1e-8

log = logging.getLogger("greechie_mle")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


# -------------------------------------------------------------------- loading


def _load_document(path: str) -> tuple[dict, str]:
    """Parse the input file; returns (document, sha256 hex digest)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(
            EXIT_PARSE,
            f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}",
        ) from exc
    if not isinstance(doc, dict):
        raise CliError(EXIT_PARSE, "input must be a JSON object")
    return doc, digest


def _build_diagram(doc: dict) -> GreechieDiagram:
    outcomes = doc.get("outcomes")
    operations = doc.get("operations")
    if not isinstance(outcomes, list) or not isinstance(operations, list):
        raise CliError(
            EXIT_PARSE, 'input needs "outcomes" (list) and "operations" (list of lists)'
        )
    if not all(isinstance(op, list) for op in operations):
        raise CliError(EXIT_PARSE, '"operations" must be a list of lists')
    try:
        return build_diagram(outcomes, operations)
    except DiagramError as exc:
        raise CliError(EXIT_PARSE, f"bad diagram: {exc}") from exc


def _read_counts(doc: dict, diagram: GreechieDiagram) -> dict[str, int]:
    counts = doc.get("counts")
    if not isinstance(counts, dict):
        raise CliError(EXIT_PARSE, 'this command needs a "counts" object')
    try:
        check_frequencies(diagram, counts)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"bad counts: {exc}") from exc
    return counts


def _read_probability(value, outcome: str):
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(
                EXIT_PARSE, f"true_probs[{outcome!r}]: bad fraction {value!r}"
            ) from exc
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise CliError(EXIT_PARSE, f"true_probs[{outcome!r}] must be a number or 'num/den'")


# ------------------------------------------------------------------ rendering


def _emit(document: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(document, indent=2))
    else:
        for line in text_lines:
            print(line)


def _probability_strings(p: dict) -> tuple[dict, dict]:
    decimal = {}
    exact = {}
    for x, v in p.items():
        decimal[x] = f"{float(v):.15g}"
        exact[x] = f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else None
    return decimal, exact


def _rules(diagram: GreechieDiagram) -> dict[str, list[Violation]]:
    """Violations of one validate_diagram report, grouped by rule."""
    rules: dict[str, list[Violation]] = {
        rule: [] for rule in ("COVERING", "G1", "G2-OMP", "G2-OML", "INTERSECTION")
    }
    for v in validate_diagram(diagram).violations:
        rules[v.rule].append(v)
    return rules


def _validation_summary(diagram: GreechieDiagram) -> dict:
    rules = _rules(diagram)
    intersection = not rules["INTERSECTION"]
    return {
        "g1": not rules["G1"],
        "g2_omp": not rules["G2-OMP"] if intersection else None,
        "g2_oml": not rules["G2-OML"] if intersection else None,
        "intersection": intersection,
    }


def _render_tree(node: dict, indent: int = 0) -> list[str]:
    pad = "  " * indent
    kind = node["kind"]
    if kind == "classical":
        return [f"{pad}classical over {{{', '.join(node['outcomes'])}}}"]
    if kind == "numeric":
        ops = "; ".join(", ".join(op) for op in node["operations"])
        return [f"{pad}numeric over operations [{ops}]"]
    if kind == "chain":
        shared = ", ".join(node["shared"])
        return [f"{pad}chain of {len(node['operations'])} operations (shared: {shared})"]
    if kind == "horizontal_sum":
        lines = [f"{pad}horizontal sum"]
        for child in node["children"]:
            lines.extend(_render_tree(child, indent + 1))
        return lines
    lines = [f"{pad}product"]
    for child in node["factors"]:
        lines.extend(_render_tree(child, indent + 1))
    return lines


# ------------------------------------------------------------------- commands


def _cmd_validate(args: argparse.Namespace) -> int:
    doc, _ = _load_document(args.file)
    diagram = _build_diagram(doc)
    rules = _rules(diagram)
    intersection_ok = not rules["INTERSECTION"]

    lines = _rule_lines("G1", rules["G1"])
    if intersection_ok:
        lines += _rule_lines("G2-OMP", rules["G2-OMP"])
        lines += _rule_lines("G2-OML", rules["G2-OML"])
        lines.append("intersection precondition: pass")
    else:
        lines.append("G2-OMP: not applicable")
        lines.append("G2-OML: not applicable")
        message = rules["INTERSECTION"][0].message
        lines.append(f"intersection precondition: fail ({message})")

    ok = not rules["G1"] and intersection_ok and not rules["G2-OMP"]
    lines.append(f"overall: {'valid' if ok else 'invalid'}")

    document = {
        "g1": _report_json(rules["G1"]),
        "g2_omp": _report_json(rules["G2-OMP"]) if intersection_ok else None,
        "g2_oml": _report_json(rules["G2-OML"]) if intersection_ok else None,
        "intersection": intersection_ok,
        "valid": ok,
    }
    _emit(document, lines, args.format)
    return EXIT_OK if ok else EXIT_REJECTED


def _rule_lines(rule: str, violations: list[Violation]) -> list[str]:
    return [f"{rule}: {'fail' if violations else 'pass'}"] + [
        f"  {v.message}" for v in violations
    ]


def _report_json(violations: list[Violation]) -> dict:
    return {
        "passed": not violations,
        "violations": [
            {"rule": v.rule, "witness": repr(v.witness), "message": v.message}
            for v in violations
        ],
    }


def _cmd_classify(args: argparse.Namespace) -> int:
    doc, _ = _load_document(args.file)
    diagram = _build_diagram(doc)
    plan = build_plan(diagram)
    tree = plan_summary(plan)
    verdict = plan_verdict(plan)
    lines = _render_tree(tree)
    lines.append(f"verdict: {verdict}")
    _emit({"decomposition": tree, "verdict": verdict}, lines, args.format)
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    doc, digest = _load_document(args.file)
    diagram = _build_diagram(doc)
    counts = _read_counts(doc, diagram)
    result = estimate(diagram, counts, method=args.method)

    if args.self_check:
        _self_check(diagram, counts, result)

    decimal, exact = _probability_strings(result.p)
    document = {
        "probabilities": decimal,
        "probabilities_exact": exact,
        "method": result.method,
        "log_likelihood": result.log_lik,
        "kkt_residual": result.residual,
        "decomposition": result.diagnostics.get("tree"),
        "splitting_parameters": result.diagnostics.get("splitting_parameters"),
        "validation": _validation_summary(diagram),
        "tool_version": __version__,
        "input_digest": f"sha256:{digest}",
        "tolerance": NORMALIZATION_TOL,
    }
    lines = [f"method: {result.method}"]
    for x in diagram.outcomes:
        suffix = f" = {exact[x]}" if exact[x] else ""
        lines.append(f"p({x}) = {decimal[x]}{suffix}")
    lines.append(f"log-likelihood: {result.log_lik:.12g}")
    lines.append(f"kkt residual: {result.residual:.3e}")
    if document["splitting_parameters"]:
        rendered = ", ".join(f"{c:.7f}" for c in document["splitting_parameters"])
        lines.append(f"splitting parameters: [{rendered}]")
    _emit(document, lines, args.format)
    return EXIT_OK


def _self_check(diagram: GreechieDiagram, counts: dict, result) -> None:
    """Both routes must agree coordinatewise when both exist."""
    if result.diagnostics["verdict"] == "numeric-only" and result.method == "numeric":
        log.info("self-check: only the numeric route exists; nothing to compare")
        return
    other_method = "numeric" if result.method != "numeric" else "auto"
    other = estimate(diagram, counts, method=other_method)
    worst = max(abs(float(result.p[x]) - float(other.p[x])) for x in diagram.outcomes)
    log.info("self-check: max coordinate gap %.3e", worst)
    if worst > _SELF_CHECK_TOL:
        raise CliError(
            EXIT_DOMINANCE,
            f"self-check failed: routes disagree by {worst:.3e} (> {_SELF_CHECK_TOL})",
        )


def _cmd_sample(args: argparse.Namespace) -> int:
    doc, _ = _load_document(args.file)
    diagram = _build_diagram(doc)
    raw_probs = doc.get("true_probs")
    raw_policy = doc.get("policy")
    if not isinstance(raw_probs, dict) or not isinstance(raw_policy, list):
        raise CliError(
            EXIT_PARSE, 'sampling needs "true_probs" (object) and "policy" (list)'
        )
    if set(raw_probs) != set(diagram.outcomes):
        raise CliError(EXIT_PARSE, "true_probs must cover the outcomes exactly")
    p_true = {x: _read_probability(v, x) for x, v in raw_probs.items()}
    try:
        policy = OperationPolicy.aligned(diagram, [float(w) for w in raw_policy])
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_REJECTED, f"invalid policy: {exc}") from exc
    try:
        counts = sample_outcomes(diagram, p_true, policy, args.n, args.seed)
    except ValueError as exc:
        raise CliError(EXIT_REJECTED, str(exc)) from exc

    document = {
        "outcomes": list(diagram.outcomes),
        "operations": [list(op) for op in diagram.operations],
        "counts": counts,
        "trials": args.n,
        "seed": args.seed,
    }
    lines = [f"{x}: {counts[x]}" for x in diagram.outcomes]
    _emit(document, lines, args.format)
    return EXIT_OK


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    doc, _ = _load_document(args.file)
    diagram = _build_diagram(doc)
    counts = _read_counts(doc, diagram)
    result = estimate(diagram, counts)
    # The oracle searches the caller's problem, not the reduced one that
    # estimate solves, so a wrong zero-count reduction shows as a FAIL.
    budget = OracleBudget(sample_count=args.samples, rng_seed=args.seed)
    oracle_best = brute_force_mle(diagram, counts, budget)

    solver_ll = log_likelihood(counts, result.p)
    oracle_ll = log_likelihood(counts, oracle_best)
    passed = solver_ll >= oracle_ll - _DOMINANCE_SLACK
    document = {
        "solver_loglik": solver_ll,
        "oracle_loglik": oracle_ll,
        "slack": _DOMINANCE_SLACK,
        "dominance": passed,
    }
    lines = [
        f"log-likelihood (solver): {solver_ll:.12f}",
        f"log-likelihood (oracle): {oracle_ll:.12f}",
        f"verdict: {'PASS' if passed else 'FAIL'}",
    ]
    _emit(document, lines, args.format)
    return EXIT_OK if passed else EXIT_DOMINANCE


# ----------------------------------------------------------------- entrypoint


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greechie-mle",
        description="Maximum likelihood estimation on finite event structures",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="input JSON document")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p_validate = sub.add_parser("validate", help="check structural conditions")
    add_common(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_classify = sub.add_parser("classify", help="decomposition tree and verdict")
    add_common(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_estimate = sub.add_parser("estimate", help="maximum likelihood estimate")
    add_common(p_estimate)
    p_estimate.add_argument(
        "--method", choices=("auto", "closed", "numeric"), default="auto"
    )
    p_estimate.add_argument(
        "--self-check",
        action="store_true",
        help="also solve by the other route and compare",
    )
    p_estimate.set_defaults(func=_cmd_estimate)

    p_sample = sub.add_parser("sample", help="draw synthetic counts")
    add_common(p_sample)
    p_sample.add_argument("--n", type=_positive_int, required=True)
    p_sample.add_argument("--seed", type=_nonnegative_int, default=1)
    p_sample.set_defaults(func=_cmd_sample)

    p_oracle = sub.add_parser("oracle-check", help="estimate vs. brute force")
    add_common(p_oracle)
    p_oracle.add_argument("--samples", type=_positive_int, default=100_000)
    p_oracle.add_argument("--seed", type=_positive_int, default=1)
    p_oracle.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    level = os.environ.get("GREECHIE_MLE_LOG")
    if level:
        logging.basicConfig(
            stream=sys.stderr,
            level=getattr(logging, level.upper(), logging.INFO),
            format="%(name)s %(levelname)s: %(message)s",
        )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except GreechieError as exc:
        where = f" (plan node {exc.node_path})" if hasattr(exc, "node_path") else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        if isinstance(exc, NoClosedForm):
            return EXIT_NO_CLOSED_FORM
        return EXIT_ESTIMATION if isinstance(exc, EstimationError) else EXIT_REJECTED


if __name__ == "__main__":
    sys.exit(main())
