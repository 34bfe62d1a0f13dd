#!/usr/bin/env python3
"""Generate the API reference and the scenario catalogue from the code.

Stdlib-only (``inspect`` + docstrings): no Sphinx/mkdocstrings dependency, so
the generated pages build anywhere mkdocs does.  The output is committed; CI
re-runs this script and fails if the committed pages drifted from the code
(`git diff --exit-code -- docs`), so the reference can never go stale.

Run from the repository root:

    PYTHONPATH=src python docs/gen_ref.py
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
from pathlib import Path

DOCS_DIR = Path(__file__).resolve().parent
GENERATED_HEADER = "<!-- generated by docs/gen_ref.py — edit the docstrings, not this file -->"

#: Modules documented on each reference page, in order.
REFERENCE_PAGES = {
    "reference/runner.md": (
        "repro.runner",
        [
            "repro.runner",
            "repro.experiments.scenario",
            "repro.runner.campaign",
            "repro.runner.executor",
            "repro.runner.record",
            "repro.runner.cache",
        ],
    ),
    "reference/faults.md": (
        "repro.faults",
        [
            "repro.faults",
            "repro.faults.delays",
            "repro.faults.transport",
            "repro.faults.corruption",
            "repro.faults.behaviours",
            "repro.faults.attacks",
            "repro.faults.library",
            "repro.consensus.behaviour",
            "repro.metrics.counters",
        ],
    ),
    "reference/crypto.md": (
        "repro.crypto",
        [
            "repro.crypto",
            "repro.crypto.backend",
            "repro.crypto.signatures",
            "repro.crypto.threshold",
        ],
    ),
    "reference/runtime.md": (
        "repro.runtime",
        [
            "repro.runtime",
            "repro.runtime.wallclock",
            "repro.runtime.transports",
            "repro.runtime.tcp",
            "repro.runtime.codec",
            "repro.runner.live",
            "repro.runner.shard",
            "repro.runner.process_cluster",
        ],
    ),
    "reference/statemachine.md": (
        "repro.statemachine",
        [
            "repro.statemachine",
            "repro.statemachine.commands",
            "repro.statemachine.kvstore",
            "repro.statemachine.messages",
            "repro.consensus.mempool",
            "repro.runner.workload",
        ],
    ),
}

_ROLE = re.compile(r":(?:class|mod|func|meth|attr|data|exc):`~?([^`]+)`")


def clean(text: str) -> str:
    """Docstring -> markdown: resolve rST roles, normalise literals."""
    text = inspect.cleandoc(text)
    # :class:`~repro.faults.delays.DelayModel` -> `DelayModel`
    text = _ROLE.sub(lambda match: f"`{match.group(1).rsplit('.', 1)[-1]}`", text)
    text = text.replace("``", "`")
    return text


def signature_of(obj) -> str:
    """``inspect.signature`` rendered with source-literal annotations.

    Every module uses ``from __future__ import annotations``, so annotations
    are the literal source strings — rendering those (instead of evaluated
    typing objects) keeps the output identical across Python versions, which
    the CI freshness check depends on.
    """
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(...)"

    def annotation_text(annotation) -> str:
        if isinstance(annotation, str):
            return annotation.replace('"', "").replace("'", "")
        return getattr(annotation, "__name__", None) or str(annotation)

    parts: list[str] = []
    saw_star = False
    for parameter in sig.parameters.values():
        if parameter.kind is parameter.KEYWORD_ONLY and not saw_star:
            parts.append("*")
            saw_star = True
        text = parameter.name
        if parameter.kind is parameter.VAR_POSITIONAL:
            text = "*" + text
            saw_star = True
        elif parameter.kind is parameter.VAR_KEYWORD:
            text = "**" + text
        annotated = parameter.annotation is not parameter.empty
        if annotated:
            text += f": {annotation_text(parameter.annotation)}"
        if parameter.default is not parameter.empty:
            text += f" = {parameter.default!r}" if annotated else f"={parameter.default!r}"
        parts.append(text)
    rendered = f"({', '.join(parts)})"
    if sig.return_annotation is not sig.empty:
        rendered += f" -> {annotation_text(sig.return_annotation)}"
    return rendered


def is_public(name: str) -> bool:
    return not name.startswith("_")


def document_function(name: str, obj, level: int) -> list[str]:
    lines = [f"{'#' * level} `{name}{signature_of(obj)}`", ""]
    if obj.__doc__:
        lines += [clean(obj.__doc__), ""]
    return lines


def document_class(name: str, cls, level: int) -> list[str]:
    bases = ", ".join(
        base.__name__ for base in cls.__bases__ if base is not object
    )
    title = f"{name}({bases})" if bases else name
    lines = [f"{'#' * level} `{title}`", ""]
    if cls.__doc__:
        lines += [clean(cls.__doc__), ""]
    members = []
    for member_name, member in vars(cls).items():
        if not is_public(member_name) or not member.__doc__:
            continue
        if isinstance(member, property):
            members.append((member_name, f"`{member_name}` *(property)*", member.fget))
        elif isinstance(member, classmethod):
            members.append(
                (
                    member_name,
                    f"`{member_name}{signature_of(member.__func__)}` *(classmethod)*",
                    member.__func__,
                )
            )
        elif inspect.isfunction(member):
            members.append((member_name, f"`{member_name}{signature_of(member)}`", member))
    for _, heading, member in members:
        lines += [f"{'#' * (level + 1)} {heading}", ""]
        lines += [clean(member.__doc__), ""]
    return lines


def document_module(module_name: str, level: int = 2) -> list[str]:
    module = importlib.import_module(module_name)
    lines = [f"{'#' * level} Module `{module_name}`", ""]
    if module.__doc__:
        lines += [clean(module.__doc__), ""]
    exported = getattr(module, "__all__", None)
    for name, obj in vars(module).items():
        if not is_public(name):
            continue
        defined_here = getattr(obj, "__module__", None) == module_name
        if exported is not None and not defined_here:
            continue  # package __init__: document only what the module defines
        if inspect.isclass(obj) and defined_here:
            lines += document_class(name, obj, level + 1)
        elif inspect.isfunction(obj) and defined_here:
            lines += document_function(name, obj, level + 1)
    return lines


def generate_reference() -> None:
    for relative_path, (title, module_names) in REFERENCE_PAGES.items():
        lines = [GENERATED_HEADER, "", f"# API reference: `{title}`", ""]
        for module_name in module_names:
            lines += document_module(module_name)
        target = DOCS_DIR / relative_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(lines).rstrip() + "\n", encoding="utf-8")
        print(f"wrote {target.relative_to(DOCS_DIR.parent)}")


def generate_catalogue() -> None:
    from repro.faults.library import scenario_catalogue

    lines = [
        GENERATED_HEADER,
        "",
        "# Scenario catalogue",
        "",
        "Every named scenario in `repro.faults.library`: what adversarial",
        "situation it models, which paper claim it stresses, and its tunable",
        "parameters.  Reference a scenario by name from a config —",
        "",
        "```python",
        'ScenarioConfig(pacemaker="lumiere", gst=20.0, scenario="split_brain_at_gst")',
        "```",
        "",
        "— or sweep the whole library as a campaign axis",
        '(`Sweep("scenario", available_scenarios())`).  Parameter defaults of',
        "*derived* are computed from the scenario config at build time, so one",
        "scenario name means the same relative adversary at every system size.",
        "Override parameters per run via `scenario_params={...}`.",
        "",
        "Every scenario proposes delays within the partial-synchrony envelope",
        "(the network still delivers by `max(GST, send) + Delta`) and corrupts",
        "at most `f` processors, so safety *and* liveness are required of every",
        "correct pacemaker under every entry; what varies is the latency and",
        "communication the adversary extracts.",
        "",
        "Every entry runs on **every lane**: a `FaultyTransport` imposes the",
        "scenario's schedule on the in-memory transport of the virtual-time lane",
        "and on the socket and shared-memory transports of a live cluster alike —",
        "see the chaos section of [runtimes](runtimes.md).  Loss is a delay model",
        "too (`Lossy`): to add it to an entry, build the entry's corruption plan",
        "(`get_scenario(name).build(config, params)`) and pass `corruption=` plus",
        "`delay_model=Lossy(base=<the entry's delay model>, drop_rate=...)`.  In virtual time a run",
        "replays exactly; the conformance suite (`tests/test_live_faults.py`) holds",
        "the whole catalogue, across three seeds, to decisions, ledgers, wire totals",
        "and fault counts captured on the `Network` fabric the transport stack",
        "replaced (`tests/data/lane_fingerprints.json`).",
        "",
    ]
    for entry in scenario_catalogue():
        lines += [f"## `{entry.name}`", ""]
        lines += [clean(entry.intent), ""]
        lines += [f"**Stresses:** {clean(entry.claim)}", ""]
        if entry.parameters:
            lines += ["| Parameter | Default | Description |", "|---|---|---|"]
            for parameter in entry.parameters:
                default = "*derived*" if parameter.default is None else f"`{parameter.default!r}`"
                lines.append(f"| `{parameter.name}` | {default} | {clean(parameter.doc)} |")
            lines.append("")
        else:
            lines += ["*(no parameters)*", ""]
    target = DOCS_DIR / "scenarios.md"
    target.write_text("\n".join(lines).rstrip() + "\n", encoding="utf-8")
    print(f"wrote {target.relative_to(DOCS_DIR.parent)}")


def main() -> int:
    generate_reference()
    generate_catalogue()
    return 0


if __name__ == "__main__":
    sys.exit(main())
