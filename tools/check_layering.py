#!/usr/bin/env python3
"""Layering lint: src/ modules may only include from layers below them.

The source tree is a strict DAG (see docs/architecture.md):

    obs < common < testing < dp < data < exec < core
        < analytics, baselines < service

`obs` sits at the bottom because even the thread pool reports metrics.
`testing` (the failpoint registry) sits just above common so every
runtime layer can compile fault sites in, while obs and common stay
failpoint-free (the introspection accept loop gets its fault hook
injected from the service layer instead). Each module may include its
own headers and those of lower layers, never a higher or sibling layer
(analytics and baselines are siblings). In particular this keeps the
staged query pipeline (src/core/pipeline/) free of service-level
concerns: core must never include service/. The same split governs the
interactive SVT subsystem: the mechanism (dp/svt.h) knows nothing of
sessions; the stateful registry (service/svt_session.h) composes it
with data/ and obs/ from the top layer. The profiling subsystem
(obs/prof/) follows the same doctrine: the sampler, rusage capture, and
slow-query log are plain bottom-layer mechanisms every layer may use
(core tags pipeline stages, exec sums child rusage), while their fault
hooks (`exec.rusage`, `service.introspect.profilez`) and the /profilez
and /slowz endpoints live in exec/ and service/ — obs stays
failpoint-free and serves no policy. The columnar-memory subsystem
splits the same way: the arena allocator (common/arena.h) is a plain
bottom-layer mechanism; the ColumnStore/Dataset types and the
block-gathering partitioner live in data/; the pre-warmed chamber
pool (exec/chamber_pool.h) composes data blocks, obs metrics, and the
testing failpoints from the exec layer; and only service/ decides
whether a pool exists at all (it owns the ChamberPool — core holds a
non-owning pointer and must never include service/ to get one).

Usage: check_layering.py <repo-root>
Exits non-zero listing every violating include.
"""

import pathlib
import re
import sys

# Module -> layer rank. Equal ranks are siblings and may not include each
# other. A module may include modules of strictly lower rank (and itself).
LAYER = {
    "obs": 0,
    "common": 1,
    "testing": 2,
    "dp": 3,
    "data": 4,
    "exec": 5,
    "core": 6,
    "analytics": 7,
    "baselines": 7,
    "service": 8,
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([a-z_]+)/')


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = pathlib.Path(sys.argv[1]) / "src"
    if not src.is_dir():
        print(f"no src/ directory under {sys.argv[1]}", file=sys.stderr)
        return 2

    violations = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        module = path.relative_to(src).parts[0]
        if module not in LAYER:
            violations.append(f"{path}: unknown module '{module}' "
                              f"(register it in tools/check_layering.py)")
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            match = INCLUDE_RE.match(line)
            if not match:
                continue
            target = match.group(1)
            if target not in LAYER:
                violations.append(
                    f"{path}:{lineno}: include of unknown module "
                    f"'{target}/'")
                continue
            if target == module:
                continue
            if LAYER[target] >= LAYER[module]:
                violations.append(
                    f"{path}:{lineno}: '{module}' (layer {LAYER[module]}) "
                    f"may not include '{target}/' (layer {LAYER[target]})")

    if violations:
        print("layering violations:")
        for v in violations:
            print(f"  {v}")
        return 1
    print("layering ok: all src/ includes point strictly downward")
    return 0


if __name__ == "__main__":
    sys.exit(main())
