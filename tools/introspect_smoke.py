#!/usr/bin/env python3
"""End-to-end smoke test of the live introspection server.

Drives the built gupt_cli binary the way an operator would:

  1. writes a small CSV dataset,
  2. runs `gupt_cli query --serve=0 --workers 4 --metrics-out=...` with
     `--amplification-rate=0.25` (ephemeral introspection port, parsed
     from stdout); resampling (--gamma) is mutually exclusive with
     amplification and stays covered by the unit suites,
  3. while the process holds on stdin, scrapes /healthz, /metrics,
     /budgetz?format=json, /varz, /tracez, /slowz, /timeseriesz,
     /alertz, and a short /profilez capture over a real socket,
  4. lints both the scraped /metrics payload and the --metrics-out file
     with check_metrics_names.py --payload,
  5. checks the /budgetz ledger arithmetic — the rate alone amplifies the
     run, so the spend must be the discounted epsilon' and the per-dataset
     amplification aggregates must reconcile with it exactly — and that
     /tracez is valid Chrome trace_event JSON with block spans,
  6. waits for the 100ms time-series collector to tick, then checks
     that /timeseriesz carries the budget series (spent == the /budgetz
     ledger) and /alertz the built-in rules, in both text and JSON,
     and that `gupt_cli alerts` / `gupt_cli top` render against the
     same live port,
  7. closes stdin and expects a clean exit.

Usage: introspect_smoke.py /path/to/gupt_cli /path/to/check_metrics_names.py
"""

import http.client
import json
import random
import re
import subprocess
import sys
import tempfile
import pathlib
import time


def fail(message: str) -> None:
    print(f"introspect_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def get(port: int, target: str, want_status: int = 200) -> tuple[str, str]:
    """GET http://127.0.0.1:port/target -> (content_type, body)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        body = response.read().decode("utf-8", errors="replace")
        if response.status != want_status:
            fail(
                f"GET {target}: status {response.status} "
                f"(want {want_status}): {body[:200]}"
            )
        return response.getheader("Content-Type", ""), body
    finally:
        connection.close()


def read_line(process: subprocess.Popen, pattern: str, deadline: float) -> str:
    """Reads stdout lines until one matches `pattern` (regex)."""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            fail(f"gupt_cli exited before printing /{pattern}/")
        sys.stdout.write("  cli| " + line)
        match = re.search(pattern, line)
        if match:
            return line
    fail(f"timed out waiting for /{pattern}/")
    raise AssertionError  # unreachable


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    cli = sys.argv[1]
    checker = sys.argv[2]

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="gupt_introspect_smoke_"))
    csv_path = workdir / "ages.csv"
    metrics_out = workdir / "metrics.prom"
    scraped = workdir / "scraped_metrics.prom"

    rng = random.Random(7)
    rows = "\n".join(str(rng.randint(18, 90)) for _ in range(4000))
    csv_path.write_text("age\n" + rows + "\n", encoding="utf-8")

    budget, epsilon = 5.0, 0.5
    process = subprocess.Popen(
        [
            cli, "query",
            f"--data={csv_path}", "--header",
            "--program=mean", "--params=dim=0",
            f"--epsilon={epsilon}", "--range=0,150", f"--budget={budget}",
            "--workers=4", "--seed=11",
            # Pad each block to a fixed 1.5ms cycle budget: with columnar
            # zero-copy blocks the raw per-block work is sub-microsecond and
            # a single pool worker can drain the whole queue before the
            # others wake, leaving every span on one lane. Padding makes the
            # multi-lane assertion below deterministic.
            "--pad-deadline-us=1500",
            # A fast collector cadence so /timeseriesz history and alert
            # evaluations accumulate within the smoke-test window.
            "--collector-period-ms=100",
            # Amplification: the query runs on a Bernoulli(0.25) subsample
            # (n_mech = 1000 rows -> ~16 default blocks, plenty for the
            # multi-lane assertion below), noise stays at --epsilon, and
            # the ledger is debited epsilon' = ln(1 + rate*(e^eps - 1)).
            "--amplification-rate=0.25",
            "--serve=0", f"--metrics-out={metrics_out}",
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        serving = read_line(
            process, r"serving on http://127\.0\.0\.1:(\d+)/", deadline
        )
        port = int(re.search(r":(\d+)/", serving).group(1))
        # The query and the metrics file are done before the hold begins;
        # the amplified run must announce its discounted charge.
        read_line(process, r"amplification\s*:\s*rate=0\.25", deadline)
        read_line(process, r"metrics: written to", deadline)

        # --- /healthz -------------------------------------------------------
        _, health = get(port, "/healthz")
        if health.strip() != "ok":
            fail(f"/healthz body: {health!r}")

        # --- /metrics -------------------------------------------------------
        content_type, payload = get(port, "/metrics")
        if "text/plain" not in content_type:
            fail(f"/metrics content type: {content_type}")
        for needle in (
            "gupt_runtime_queries_total",
            "gupt_dp_epsilon_charged_total",
            "gupt_introspect_requests_total",
        ):
            if needle not in payload:
                fail(f"/metrics payload is missing {needle}")
        scraped.write_text(payload, encoding="utf-8")
        for target in (scraped, metrics_out):
            lint = subprocess.run(
                [sys.executable, checker, "--payload", str(target)],
                capture_output=True, text=True,
            )
            if lint.returncode != 0:
                fail(
                    f"payload lint of {target.name} failed:\n"
                    f"{lint.stdout}{lint.stderr}"
                )

        # --- /budgetz -------------------------------------------------------
        content_type, body = get(port, "/budgetz?format=json")
        if "application/json" not in content_type:
            fail(f"/budgetz content type: {content_type}")
        ledger = json.loads(body)
        datasets = ledger["datasets"]
        if len(datasets) != 1 or datasets[0]["dataset"] != "cli":
            fail(f"/budgetz datasets: {datasets}")
        entry = datasets[0]
        if entry["total_epsilon"] != budget:
            fail(f"total_epsilon {entry['total_epsilon']} != {budget}")
        # The run is amplified: the ledger holds epsilon' strictly below
        # the raw epsilon the noise was calibrated at.
        spent = entry["spent_epsilon"]
        if not 0.0 < spent < epsilon:
            fail(f"amplified spent_epsilon {spent} not in (0, {epsilon})")
        if entry["remaining_epsilon"] != budget - spent:
            fail(f"remaining_epsilon {entry['remaining_epsilon']}")
        if entry["num_charges"] != 1 or len(entry["charges"]) != 1:
            fail(f"charges: {entry['charges']}")
        if abs(sum(c["epsilon"] for c in entry["charges"]) - spent) > 0:
            fail("charge history does not sum to the spent total")
        amplification = entry.get("amplification")
        if amplification is None:
            fail("/budgetz entry has no amplification aggregates")
        if amplification["queries"] != 1:
            fail(f"amplification queries: {amplification['queries']}")
        if amplification["epsilon_raw"] != epsilon:
            fail(f"amplification epsilon_raw: {amplification['epsilon_raw']}")
        if amplification["epsilon_charged"] != spent:
            fail(
                f"amplification epsilon_charged "
                f"{amplification['epsilon_charged']} != ledger spent {spent}"
            )
        if amplification["epsilon_saved"] != epsilon - spent:
            fail(f"amplification epsilon_saved: {amplification['epsilon_saved']}")
        _, text_table = get(port, "/budgetz")
        if "epsilon remaining" not in text_table:
            fail(f"/budgetz text table: {text_table[:200]!r}")

        # --- /varz ----------------------------------------------------------
        _, varz = get(port, "/varz")
        json.loads(varz)

        # --- /tracez --------------------------------------------------------
        content_type, trace_body = get(port, "/tracez")
        if "application/json" not in content_type:
            fail(f"/tracez content type: {content_type}")
        trace = json.loads(trace_body)
        events = trace["traceEvents"]
        blocks = [e for e in events if e.get("cat") == "block"]
        stages = [e for e in events if e.get("cat") == "stage"]
        if not blocks:
            fail("/tracez has no block spans")
        if not any(e.get("name") == "execute_blocks" for e in stages):
            fail("/tracez has no execute_blocks stage span")
        worker_lanes = {e["tid"] for e in blocks}
        if len(worker_lanes) < 2:
            fail(f"block spans all on one lane: {worker_lanes}")
        for event in blocks + stages:
            if event.get("ph") != "X":
                fail(f"span without ph=X: {event}")

        # --- /slowz ---------------------------------------------------------
        content_type, slow_body = get(port, "/slowz?format=json")
        if "application/json" not in content_type:
            fail(f"/slowz content type: {content_type}")
        slowz = json.loads(slow_body)
        if slowz["queries_considered"] < 1:
            fail(f"/slowz considered no queries: {slow_body[:200]}")
        entries = slowz["queries"]
        if not entries:
            fail("/slowz retained no queries")
        entry = entries[0]
        if entry["program"] != "mean" or entry["query_id"] <= 0:
            fail(f"/slowz entry: {entry}")
        stage_names = {s["name"] for s in entry["stages"]}
        if "execute_blocks" not in stage_names:
            fail(f"/slowz entry has no execute_blocks stage: {stage_names}")
        # The slow query's per-stage CPU must sum to no more than the
        # query CPU plus clock granularity.
        stage_cpu = sum(s["cpu_seconds"] for s in entry["stages"])
        if stage_cpu > entry["cpu_seconds"] + 1e-3 * (len(entry["stages"]) + 1):
            fail(
                f"/slowz stage CPU {stage_cpu} exceeds query CPU "
                f"{entry['cpu_seconds']}"
            )
        _, slow_text = get(port, "/slowz")
        if f"qid={entry['query_id']}" not in slow_text:
            fail(f"/slowz text is missing qid={entry['query_id']}")

        # --- /profilez ------------------------------------------------------
        # A short capture: the process is idle, so zero samples is a valid
        # (and likely) outcome — the payload must still be valid folded
        # stacks, i.e. every line is "stage:<frames...> <count>".
        content_type, folded = get(port, "/profilez?seconds=0.2&hz=97")
        if "text/plain" not in content_type:
            fail(f"/profilez content type: {content_type}")
        for line in folded.splitlines():
            if not re.fullmatch(r"stage:\S+ \d+", line):
                fail(f"/profilez line is not a folded stack: {line!r}")
        get(port, "/profilez?seconds=nope", want_status=400)
        get(port, "/profilez?hz=9999", want_status=400)

        # --- /timeseriesz ---------------------------------------------------
        # The collector runs at 100ms; poll until it has ticked at least
        # twice (counters need a prior sample before rates appear) and
        # the budget sweep has published the spent-epsilon gauge.
        spent_name = "gupt_budget_spent_epsilon{dataset=cli}:value"
        series_index = {}
        poll_deadline = time.monotonic() + 30
        while time.monotonic() < poll_deadline:
            content_type, ts_body = get(port, "/timeseriesz?format=json")
            if "application/json" not in content_type:
                fail(f"/timeseriesz content type: {content_type}")
            timeseries = json.loads(ts_body)
            series_index = {s["name"]: s for s in timeseries["series"]}
            if timeseries["ticks"] >= 2 and spent_name in series_index:
                break
            time.sleep(0.1)
        else:
            fail(
                f"collector never published {spent_name} "
                f"(ticks={timeseries.get('ticks')}, "
                f"series={sorted(series_index)[:10]})"
            )
        if timeseries["period_ms"] != 100:
            fail(f"/timeseriesz period_ms: {timeseries['period_ms']}")
        if timeseries["capacity"] < 1:
            fail(f"/timeseriesz capacity: {timeseries['capacity']}")
        if timeseries["matched"] != len(timeseries["series"]):
            fail(
                f"matched {timeseries['matched']} != "
                f"{len(timeseries['series'])} series entries"
            )
        if timeseries["tracked"] < timeseries["matched"]:
            fail("tracked series < matched series")
        for summary in timeseries["series"]:
            if summary["points"] < 1:
                fail(f"series {summary['name']} has no points")
            # The running mean accumulates ulp-scale rounding, so a flat
            # series can report mean a hair outside [min, max].
            slack = 1e-9 * max(abs(summary["min"]), abs(summary["max"]), 1.0)
            if not (summary["min"] - slack
                    <= summary["mean"]
                    <= summary["max"] + slack):
                fail(f"series {summary['name']} min/mean/max out of order")
        # The spent-epsilon series must agree with the /budgetz ledger
        # (the amplified epsilon', not the raw query epsilon).
        if series_index[spent_name]["latest"] != spent:
            fail(
                f"{spent_name} latest {series_index[spent_name]['latest']} "
                f"!= ledger spent {spent}"
            )
        # A name filter switches on the raw point dumps; timestamps must
        # be strictly monotone and end at the summary's latest value.
        _, filtered_body = get(
            port, "/timeseriesz?format=json&name=gupt_budget_spent_epsilon"
        )
        filtered = json.loads(filtered_body)
        if not filtered["series"]:
            fail("name filter matched no budget series")
        for summary in filtered["series"]:
            samples = summary.get("samples")
            if not samples:
                fail(f"filtered series {summary['name']} has no samples")
            stamps = [s["t_ns"] for s in samples]
            if stamps != sorted(set(stamps)):
                fail(f"series {summary['name']} timestamps not monotone")
            if samples[-1]["value"] != summary["latest"]:
                fail(f"series {summary['name']} last sample != latest")
        _, ts_text = get(port, "/timeseriesz")
        if "gupt_budget_spent_epsilon" not in ts_text:
            fail("/timeseriesz text is missing the budget series")

        # --- /alertz --------------------------------------------------------
        content_type, alert_body = get(port, "/alertz?format=json")
        if "application/json" not in content_type:
            fail(f"/alertz content type: {content_type}")
        alertz = json.loads(alert_body)
        rules = {r["name"]: r for r in alertz["rules"]}
        if "budget_exhaustion_imminent" not in rules:
            fail(f"built-in burn-rate rule missing: {sorted(rules)}")
        if rules["budget_exhaustion_imminent"]["severity"] != "critical":
            fail("budget_exhaustion_imminent is not critical")
        valid_states = {"inactive", "pending", "firing", "resolved"}
        instances = alertz["instances"]
        for instance in instances:
            if instance["state"] not in valid_states:
                fail(f"alert instance in unknown state: {instance}")
        budget_instances = [
            i for i in instances
            if i["rule"] == "budget_exhaustion_imminent"
            and i["instance"] == "cli"
        ]
        if not budget_instances:
            fail("no budget_exhaustion_imminent instance for dataset cli")
        _, alert_text = get(port, "/alertz")
        if "budget_exhaustion_imminent" not in alert_text:
            fail("/alertz text is missing the built-in burn-rate rule")

        # --- gupt_cli alerts / top against the live port --------------------
        alerts_cli = subprocess.run(
            [cli, "alerts", f"--port={port}", "--json"],
            capture_output=True, text=True, timeout=30,
        )
        if alerts_cli.returncode != 0:
            fail(f"gupt_cli alerts failed: {alerts_cli.stderr[:200]}")
        if "rules" not in json.loads(alerts_cli.stdout):
            fail("gupt_cli alerts --json did not print the rule table")
        top_cli = subprocess.run(
            [cli, "top", f"--port={port}"],
            capture_output=True, text=True, timeout=30,
        )
        if top_cli.returncode != 0:
            fail(f"gupt_cli top failed: {top_cli.stderr[:200]}")
        for needle in ("== health", "== budgets", "== alerts", "== series"):
            if needle not in top_cli.stdout:
                fail(f"gupt_cli top output is missing {needle!r}")

        # --- index + 404 ----------------------------------------------------
        _, index = get(port, "/")
        for endpoint in ("/budgetz", "/timeseriesz", "/alertz"):
            if endpoint not in index:
                fail(f"index does not list {endpoint}")
        get(port, "/nonexistent", want_status=404)

        # --- clean shutdown -------------------------------------------------
        process.stdin.close()
        code = process.wait(timeout=30)
        if code != 0:
            fail(f"gupt_cli exited with {code}")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    print("introspect_smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
