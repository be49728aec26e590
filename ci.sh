#!/usr/bin/env bash
# CI entry point, four legs:
#   1. release: build + full test suite, model-lint fixture gate, a
#      traced + certified end-to-end EPN solve whose JSONL event log is
#      validated against the documented schema, the small-EPN search-
#      trajectory gate, and the exploration benchmark's smoke test with its
#      correctness gates.
#   2. asan: AddressSanitizer + UBSan build (-fno-sanitize-recover, warnings
#      promoted to errors via ARCHEX_WERROR) running the full suite.
#   3. tsan: ThreadSanitizer build running the concurrency-focused suites.
#   4. clang-tidy over src/ + tools/, using the release compile database
#      (skipped with a notice when clang-tidy is not installed).
set -euo pipefail
cd "$(dirname "$0")"

echo "=== release: configure + build ==="
cmake --preset release
cmake --build --preset release -j "$(nproc)"

echo "=== release: ctest (full suite) ==="
ctest --preset release -j "$(nproc)"

echo "=== static analysis: milp_lint fixture gate ==="
# Seeded-defect fixtures must fail the lint (each names the rule it seeds),
# clean fixtures must pass it even with warnings promoted, and the
# info-severity rules must surface in the report without failing the run.
for f in data/lint/bad/*.lp; do
  if build/tools/milp_lint --werror --quiet "$f" > /dev/null; then
    echo "FAIL: milp_lint did not flag seeded-defect fixture $f" >&2
    exit 1
  fi
done
build/tools/milp_lint --werror data/lint/clean/*.lp
lint_info=$(build/tools/milp_lint data/lint/info/notable_structure.lp)
for rule in redundant-row fixed-column free-column; do
  if ! grep -q "\[$rule\]" <<< "$lint_info"; then
    echo "FAIL: info fixture did not surface [$rule]" >&2
    exit 1
  fi
done
echo "lint gate: $(ls data/lint/bad/*.lp | wc -l) defect fixtures flagged," \
     "clean + info fixtures as expected"

echo "=== static analysis: milp_analyze fixture gate + report schema ==="
# The structural analyzer over the seeded data/analyze/ fixtures: each seeded
# property must be found (>= 2 components, static infeasibility, a nontrivial
# column orbit, and a fully pattern-attributed IIS no larger than the seeded
# two-row conflict), and every JSON report — lint and analyze — must validate
# against the archex-check-report/1 schema. milp_analyze exits 1 when it
# proves a model infeasible, which is the expected outcome for two fixtures.
mkdir -p build/analyze_reports
run_analyze() { # <fixture.lp> <expected-exit> <out.json>
  local rc=0
  build/tools/milp_analyze --json "$1" > "$3" || rc=$?
  if [ "$rc" != "$2" ]; then
    echo "FAIL: milp_analyze $1 exited $rc (expected $2)" >&2
    exit 1
  fi
}
run_analyze data/analyze/decomposable.lp 0 build/analyze_reports/decomposable.json
run_analyze data/analyze/static_infeasible.lp 1 build/analyze_reports/static_infeasible.json
run_analyze data/analyze/symmetric.lp 0 build/analyze_reports/symmetric.json
run_analyze data/analyze/infeasible_epn.lp 1 build/analyze_reports/infeasible_epn.json
build/tools/milp_lint --json data/analyze/static_infeasible.lp \
  > build/analyze_reports/lint_static_infeasible.json
python3 tools/validate_report.py build/analyze_reports/*.json
python3 - build/analyze_reports <<'EOF'
import json, sys
d = sys.argv[1]
def load(name):
    with open(f"{d}/{name}.json") as f:
        return json.load(f)["analysis"]
a = load("decomposable")["decompose"]
assert a["num_components"] >= 2, f"decomposable: {a['num_components']} component(s)"
a = load("static_infeasible")["propagate"]
assert a["infeasible"], "static_infeasible: propagation did not prove infeasibility"
a = load("symmetric")["symmetry"]
assert any(o["size"] >= 2 for o in a["col_orbits"]), "symmetric: no nontrivial column orbit"
a = load("infeasible_epn")["iis"]
assert a["infeasible"] and a["irreducible"], "infeasible_epn: no irreducible IIS"
assert len(a["rows"]) <= 2, f"infeasible_epn: IIS has {len(a['rows'])} rows (seeded conflict is 2)"
assert a["attribution"] == 1.0, f"infeasible_epn: attribution {a['attribution']} != 1.0"
assert all(o != "unattributed" for o in a["origins"]), "infeasible_epn: unattributed IIS row"
print("analyze gate: all four seeded structural defects found with correct attribution")
EOF

echo "=== observability: traced + certified EPN solve + schema validation ==="
# Export the EPN case-study MILP, solve it with 4 workers, tracing on and
# certification on (--certify: milp_solve exits 9 if the independent
# certifier finds any residual above tolerance), then check the emitted
# JSONL against docs/observability.md: unknown event types, missing keys,
# unsorted timestamps, or a trace without node / incumbent / steal events
# from >= 2 workers all fail the build. The trace stays under build/ as a
# CI artifact.
build/examples/epn_explorer --write-lp=build/epn_ci_model.lp
build/examples/milp_solve build/epn_ci_model.lp --threads=4 --certify \
  --trace-json=build/epn_ci_trace.jsonl --log-interval=5 --timing
python3 tools/validate_trace.py build/epn_ci_trace.jsonl --min-workers=2

echo "=== observability: span profile + per-pattern cost attribution ==="
# The same model solved with the recorder attached: the Chrome trace must be
# structurally valid (per-lane nesting, documented keys, every instant a
# documented search event with its keys) and cover the solver phases, the
# sampled simplex kernels and the search events on one timeline. Then the
# EPN explorer end to end: its profile additionally carries the encode span,
# and the --perf-report table must attribute >= 90% of encode wall time to
# named patterns (build_perf_report charges every encode path, so a drop
# below the bound means an uninstrumented path appeared).
build/examples/milp_solve build/epn_ci_model.lp --threads=2 --no-certify \
  --profile-json=build/epn_ci_profile.json > /dev/null
python3 tools/validate_trace.py --chrome build/epn_ci_profile.json \
  --require=presolve,root_lp,heuristic,tree,ftran,refactor,node_open,node_close,incumbent
build/examples/epn_explorer --profile-json=build/epn_arch_profile.json \
  --perf-report > build/epn_perf_report.txt
python3 tools/validate_trace.py --chrome build/epn_arch_profile.json \
  --require=encode,formulate,presolve,extract
python3 - build/epn_perf_report.txt <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
m = re.search(r"attributed: [0-9.]+s \(([0-9.]+)%\)", text)
assert m, "perf report missing the attribution line"
pct = float(m.group(1))
if pct < 90.0:
    print(f"FAIL: only {pct}% of encode time attributed to named patterns",
          file=sys.stderr)
    sys.exit(1)
print(f"perf report: {pct}% of encode time attributed to named patterns")
EOF

echo "=== resilience: fault injection on the EPN solve ==="
# Injected faults mid-search must leave a *certified* optimum (exit 0 below
# includes the --certify gate): a bad_alloc at the 50th tree node and a
# singular refactorization both have to be absorbed by the recovery ladder.
# Sites/spelling in docs/diagnostics.md.
build/examples/milp_solve build/epn_ci_model.lp --threads=1 \
  --inject=bad-alloc:50 --certify > /dev/null
build/examples/milp_solve build/epn_ci_model.lp --threads=1 \
  --inject=singular:300 --certify > /dev/null
echo "fault injection: ladder recovered, certificates ok"

echo "=== resilience: one budget bounds the whole lazy loop ==="
# `--budget` is converted to one end at loop entry, so solve + analyze +
# learn of every iteration spend the same second; re-solves get a quarter of
# what is left. The run must exit 0 (the anytime fallback keeps the last
# architecture) in under 1.5 s of wall time, where a fresh allowance per
# re-solve takes over 2 s.
python3 - build/examples/epn_explorer <<'EOF'
import subprocess, sys, time
t0 = time.monotonic()
subprocess.run([sys.argv[1], "--mode=lazy", "--scale=small", "--budget=1"],
               check=True, stdout=subprocess.DEVNULL)
wall = time.monotonic() - t0
if wall >= 1.5:
    sys.exit(f"FAIL: --budget=1 lazy EPN run took {wall:.2f} s (limit 1.5 s)")
print(f"budget drill: --budget=1 lazy EPN run finished in {wall:.2f} s")
EOF

echo "=== determinism: small-EPN search-trajectory gate ==="
# The one-thread search is deterministic, so the paper's small EPN pins its
# trajectory exactly: the monolithic solve's cost, nodes and simplex
# iterations, and each lazy iteration's cost, nodes and iterations. A
# refactoring that reorders the tree, shifts an incumbent or changes a
# pivot fails here. A change that alters the search on purpose updates
# these pins together with the EPN tables in EXPERIMENTS.md. The monolithic
# run also guards the kernel's refactorization policy: at most one
# refactorization per 200 simplex iterations. The product-form eta file
# refactorized on eta fill, once per ~49 pivots on perfbench's epn_eager;
# the Forrest–Tomlin update's U growth trigger still fires about once per
# 94 here, so this leg fails until an update adds less fill (ROADMAP).
# About 5 s.
python3 - build/examples/epn_explorer <<'EOF'
import re, subprocess, sys
exe = sys.argv[1]
def run(mode):
    return subprocess.run([exe, f"--mode={mode}", "--scale=small"], check=True,
                          capture_output=True, text=True).stdout
mono = run("monolithic")
m = re.search(r"^status: optimal, solver time \S+, (\d+) nodes, (\d+) simplex iterations$",
              mono, re.M)
cost = re.search(r"^cost: (\d+)$", mono, re.M)
got = (int(cost.group(1)), int(m.group(1)), int(m.group(2))) if m and cost else None
if got != (64018, 2538, 68420):
    sys.exit(f"FAIL: monolithic small EPN (cost, nodes, iterations) = {got}, "
             "pinned (64018, 2538, 68420)")
lazy = [tuple(int(v) for v in t) for t in re.findall(
    r"^iteration \d+: cost (\d+), .*?, (\d+) nodes, (\d+) simplex iterations,",
    run("lazy"), re.M)]
pinned = [(30506, 576, 7510), (47012, 203, 18459), (64018, 4676, 71396)]
if lazy != pinned:
    sys.exit(f"FAIL: lazy small EPN (cost, nodes, iterations) per iteration = "
             f"{lazy}, pinned {pinned}")
print("trajectory gate: monolithic 64018 (2538 nodes / 68420 iterations); lazy "
      "30506 -> 47012 -> 64018 (576/7510, 203/18459, 4676/71396)")
refactors = re.search(r"^simplex: \d+ pivots .*, (\d+) refactorizations$", mono, re.M)
if refactors is None or int(refactors.group(1)) > got[2] // 200:
    sys.exit(f"FAIL: monolithic small EPN refactorizations "
             f"{refactors.group(1) if refactors else '?'} > {got[2]} iterations / 200")
print(f"refactorization guard: {refactors.group(1)} on {got[2]} iterations")
EOF

echo "=== observability: a node-capped lazy iteration names its status ==="
# An iteration whose solve stops at a limit can still leave an architecture;
# its line must then say so (`iteration 1: node-limit, cost ..., gap ...`)
# instead of a bare cost that reads like a proven optimum. Optimal lines
# carry no status, so the gate above keeps matching them. A 500-node cap
# stops iterations 1 and 3 (576 and 4,676 nodes uncapped) deterministically.
# About 2 s.
python3 - build/examples/epn_explorer <<'EOF'
import re, subprocess, sys
out = subprocess.run([sys.argv[1], "--mode=lazy", "--scale=small", "--max-nodes=500"],
                     check=True, capture_output=True, text=True).stdout
limited = re.findall(r"^iteration (\d+): node-limit, cost \d+, gap \S+, ", out, re.M)
if not limited:
    sys.exit("FAIL: no node-capped lazy iteration line names its status:\n" + out)
print("status check: node-capped lazy iterations " + ", ".join(limited) +
      " print node-limit")
EOF

echo "=== bench: Release-provenance smoke (BM_LpSolve/1000) ==="
# One 1000-row LP solve through the guarded bench runner: the runner refuses
# results from non-Release builds (the BENCH_*.json provenance gate), and the
# iteration-count sanity bound fails loudly when a kernel regression turns
# the sparse LU path into a pivot storm (the healthy count is ~600).
tools/run_bench.sh build/bench/bench_milp build/bench_smoke.json \
  --benchmark_filter='^BM_LpSolve/1000$' --benchmark_min_time=0.1
python3 - build/bench_smoke.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
runs = [b for b in data["benchmarks"] if b["name"].startswith("BM_LpSolve/1000")]
assert runs, "BM_LpSolve/1000 missing from the smoke bench"
iters = runs[0]["iters"]
if not 0 < iters <= 20000:
    print(f"FAIL: BM_LpSolve/1000 took {iters} simplex iterations "
          "(sanity bound 20000): kernel regression?", file=sys.stderr)
    sys.exit(1)
print(f"bench smoke: BM_LpSolve/1000 ok ({int(iters)} simplex iterations)")
EOF

echo "=== bench: bench_diff work-gate self-check ==="
# tools/bench_diff.py requires the work counters a baseline repeats exactly
# (nodes, simplex iterations, refactorizations, sweep solves) to repeat in
# the candidate, on any CPU. Two synthetic recordings from different CPU
# models: identical counts pass, one node of difference fails.
python3 - build <<'EOF'
import json, subprocess, sys
from pathlib import Path

out = Path(sys.argv[1])

def recording(cpu, nodes):
    runs = [{"name": "BM_Tree", "run_type": "iteration", "real_time": 10.0 + r,
             "time_unit": "ms", "nodes": float(n), "iters": 900.0}
            for r, n in enumerate(nodes)]
    return {"context": {"archex_build_type": "release", "archex_cpu_model": cpu},
            "benchmarks": runs}

def diff(name, cand_nodes):
    base = out / "bench_work_base.json"
    cand = out / f"bench_work_{name}.json"
    base.write_text(json.dumps(recording("cpu A", [412, 412, 412])))
    cand.write_text(json.dumps(recording("cpu B", cand_nodes)))
    return subprocess.run([sys.executable, "tools/bench_diff.py", str(base), str(cand)],
                          capture_output=True, text=True).returncode

if diff("same", [412, 412]) != 0:
    sys.exit("FAIL: bench_diff work gate rejected identical counts")
if diff("off_by_one", [412, 413]) != 1:
    sys.exit("FAIL: bench_diff work gate passed a one-node difference")
print("bench_diff work gate: identical counts pass, one node of difference fails")
EOF

echo "=== bench: regression diff against the committed baseline ==="
# The perf-regression gate: a slightly longer recording of the kernel-bound
# benchmarks, diffed against BENCH_milp.json. bench_diff.py fails on any
# benchmark > 15% slower than the baseline (per-name minimum real_time;
# BM_ObsOverhead/0 doubles as the profiling-off zero-cost assertion — it
# *is* BM_LpSolve/1000 plus a disabled profiler). On hardware other than
# the baseline's the diff skips cleanly (the archex_cpu_model stamp), so
# forks and CI runners stay green; the machine that owns the baseline gets
# the real comparison.
tools/run_bench.sh build/bench/bench_milp build/bench_diff_ci.json \
  --benchmark_filter='^BM_LpSolve/1000$|^BM_ObsOverhead' \
  --benchmark_min_time=0.2 --benchmark_repetitions=3
python3 tools/bench_diff.py BENCH_milp.json build/bench_diff_ci.json

echo "=== bench: serve throughput diff against BENCH_serve.json ==="
# Request throughput / latency through ExplorationService (batches of
# node-capped EPN requests at 1/4/8 workers), diffed against the committed
# BENCH_serve.json with the same provenance + CPU-match rules as above.
# A batch is one iteration per repetition, so the per-name minimum needs
# several repetitions to settle below the 15% threshold.
tools/run_bench.sh build/bench/bench_serve build/bench_serve_ci.json \
  --benchmark_min_time=0.1 --benchmark_repetitions=6
python3 tools/bench_diff.py BENCH_serve.json build/bench_serve_ci.json

echo "=== bench: compiled sweep diff against BENCH_sweep.json ==="
# The compiled-pipeline benchmark (docs/pipeline.md): a 20-scenario family
# as 20 independent encode+cold solves (BM_SweepCold) vs the cached+warm
# path (BM_SweepWarm). Diffed against the committed baseline like the other
# benches — at a wider 30% threshold, because the cold arm is a single ~2 s
# iteration whose min scatters more than the short kernel benches — plus a
# ratio gate on the *fresh* recording: the headline claim of the pipeline,
# cached+warm >= 5x faster than naive re-encode+cold, must hold on this
# machine, not just on the baseline's.
tools/run_bench.sh build/bench/bench_sweep build/bench_sweep_ci.json \
  --benchmark_min_time=0.5 --benchmark_repetitions=2
python3 tools/bench_diff.py --threshold=30 \
  BENCH_sweep.json build/bench_sweep_ci.json
python3 - build/bench_sweep_ci.json <<'EOF'
import json, sys
runs = {}
for b in json.load(open(sys.argv[1]))["benchmarks"]:
    if b.get("run_type") == "aggregate":
        continue
    key = "cold" if "SweepCold" in b["name"] else "warm"
    runs[key] = min(runs.get(key, float("inf")), b["real_time"])
ratio = runs["cold"] / runs["warm"]
assert ratio >= 5.0, f"cached+warm sweep only {ratio:.2f}x faster than cold"
print(f"sweep bench: cached+warm path {ratio:.1f}x faster than encode+cold")
EOF

echo "=== bench: exploration benchmark smoke + correctness gates ==="
# perfbench/smoke.py runs every BENCHMARK.json workload at its shortest
# length, untraced and traced: each run must be correct — the certified EPN
# optimum (40,512), the lazy loop's 30,506 -> 40,512 two-iteration
# trajectory, every warm sweep scenario equal to its cold solve — and two
# runs of one seed must repeat their search counts exactly. A search change
# that breaks any of these fails here.
python3 perfbench/smoke.py

echo "=== resilience: checkpoint kill/resume drill ==="
# Reference: the same single-worker search, uninterrupted. Then
# a second run checkpointing every 50 ms is SIGKILLed mid-search and resumed;
# the resumed run must land on the identical printed objective (hexfloat
# serialization keeps the search state bit-exact at num_threads=1). The
# model is a strongly correlated knapsack (tools/gen_knapsack_lp.py, ~5 s at
# one thread on a 2.1 GHz Xeon): the EPN model closes in well under a
# second, before the kill could land.
python3 tools/gen_knapsack_lp.py 70 3 9 > build/ck_drill.lp
rm -f build/ck_ref.ck build/ck_resume.ck
build/examples/milp_solve build/ck_drill.lp --threads=1 \
  --checkpoint=build/ck_ref.ck --checkpoint-interval=3600 > build/ck_ref.log
build/examples/milp_solve build/ck_drill.lp --threads=1 \
  --checkpoint=build/ck_resume.ck --checkpoint-interval=0.05 \
  > build/ck_kill_run.log 2>&1 &
solver_pid=$!
for _ in $(seq 1 100); do
  [ -f build/ck_resume.ck ] && break
  sleep 0.1
done
sleep 1  # let the search get properly underway before the kill
kill -9 "$solver_pid" 2> /dev/null || true
wait "$solver_pid" 2> /dev/null || true
if [ ! -f build/ck_resume.ck ]; then
  echo "FAIL: no checkpoint written before the kill" >&2
  exit 1
fi
# The drill is vacuous unless the kill landed mid-search: a finished solve
# prints its status line, and its final checkpoint has an empty frontier, so
# the "resume" below would trivially re-report the stored incumbent.
if grep -q '^status:' build/ck_kill_run.log; then
  echo "FAIL: kill/resume drill: the solve completed before the kill;" \
       "no mid-search resume was exercised (see build/ck_kill_run.log)" >&2
  exit 1
fi
build/examples/milp_solve build/ck_drill.lp --threads=1 \
  --checkpoint=build/ck_resume.ck --resume > build/ck_resume.log
grep -q '^resume: checkpoint loaded$' build/ck_resume.log
ref_obj=$(grep '^objective:' build/ck_ref.log)
res_obj=$(grep '^objective:' build/ck_resume.log)
if [ "$ref_obj" != "$res_obj" ] || [ -z "$ref_obj" ]; then
  echo "FAIL: resumed objective '$res_obj' != uninterrupted '$ref_obj'" >&2
  exit 1
fi
echo "kill/resume: resumed run reproduced the uninterrupted optimum ($ref_obj)"

echo "=== serve: resilient exploration service drill ==="
# Three sub-drills against the archex_serve daemon (docs/serving.md):
#   A. isolation + deadlines — eight concurrent requests through a 2-worker
#      pool: a persistently poisoned request must fail alone, a
#      deadline-bounded hard knapsack must come back as a *degraded* anytime
#      answer with a finite bound gap, and every untouched sibling must
#      report the bit-identical objective and node count of an unloaded
#      solo run (17-significant-digit JSON round trip makes string equality
#      the float-exactness check).
#   B. load shedding — a 1-worker/2-slot daemon behind a long blocker:
#      droppable siblings are shed oldest-first with explicit
#      `rejected`/`shed` responses, never silent drops, and the newest
#      arrivals still complete.
#   C. graceful drain — SIGTERM mid-solve checkpoints the in-flight search,
#      the shutdown line names the resumable file, and a *fresh* daemon
#      resuming it reproduces the uninterrupted run's objective.
# The knapsack instances come from tools/gen_knapsack_lp.py: deterministic,
# strongly correlated (LP bounds uninformative, so hardness scales with n).
mkdir -p build/serve_drill
rm -f build/serve_drill/*
for s in 11 12 13 14 15 16; do
  python3 tools/gen_knapsack_lp.py 20 "$s" > "build/serve_drill/sib$s.lp"
done
python3 tools/gen_knapsack_lp.py 70 3 9 > build/serve_drill/hard.lp

# Unloaded solo references for the bit-exactness checks (1 worker, nothing
# else in flight) — the hard instance doubles as drill C's uninterrupted run.
for s in 11 12 13 14 15 16; do
  printf '{"id":"sib%s","lp_file":"build/serve_drill/sib%s.lp"}\n' "$s" "$s"
done > build/serve_drill/solo.ndjson
printf '{"id":"hard","lp_file":"build/serve_drill/hard.lp"}\n' \
  >> build/serve_drill/solo.ndjson
build/tools/archex_batch --workers=1 build/serve_drill/solo.ndjson \
  > build/serve_drill/solo_out.ndjson

# --- A: mixed concurrent batch; stdin EOF = graceful close (finish all) ---
{
  printf '{"id":"anytime","lp_file":"build/serve_drill/hard.lp","budget_ms":500}\n'
  printf '{"id":"poison","lp_file":"build/serve_drill/sib11.lp","inject":"nan-pivot:2:0:1000000000","retries":0}\n'
  for s in 11 12 13 14 15 16; do
    printf '{"id":"sib%s","lp_file":"build/serve_drill/sib%s.lp"}\n' "$s" "$s"
  done
  printf '{"op":"metrics"}\n'
} > build/serve_drill/mixed.ndjson
build/tools/archex_serve --workers=2 < build/serve_drill/mixed.ndjson \
  > build/serve_drill/mixed_out.ndjson

# --- B: tiny queue behind a blocker; droppable siblings must shed ---
{
  printf '{"id":"blocker","lp_file":"build/serve_drill/hard.lp","budget_ms":1500}\n'
  for s in 11 12 13 14; do
    printf '{"id":"shed%s","lp_file":"build/serve_drill/sib%s.lp","droppable":true}\n' "$s" "$s"
  done
} > build/serve_drill/shed.ndjson
build/tools/archex_serve --workers=1 --queue=2 < build/serve_drill/shed.ndjson \
  > build/serve_drill/shed_out.ndjson

# --- C: SIGTERM mid-solve -> checkpoint -> resume in a fresh daemon ---
mkfifo build/serve_drill/in
build/tools/archex_serve --workers=1 < build/serve_drill/in \
  > build/serve_drill/drain_out.ndjson &
serve_pid=$!
exec 3> build/serve_drill/in
printf '{"id":"drainme","lp_file":"build/serve_drill/hard.lp","checkpoint":"build/serve_drill/drain.ck"}\n' >&3
sleep 1.5  # past several 0.25 s checkpoint intervals, well before the ~5 s solve ends
kill -TERM "$serve_pid"
wait "$serve_pid"
exec 3>&-
if [ ! -f build/serve_drill/drain.ck ]; then
  echo "FAIL: serve drill: no checkpoint written before SIGTERM" >&2
  exit 1
fi
printf '{"id":"resumed","lp_file":"build/serve_drill/hard.lp","checkpoint":"build/serve_drill/drain.ck","resume":true}\n' |
  build/tools/archex_batch --workers=1 - > build/serve_drill/resume_out.ndjson

python3 - build/serve_drill <<'EOF'
import json, math, sys
d = sys.argv[1]
def load(name):
    out = {}
    with open(f"{d}/{name}.ndjson") as f:
        for line in f:
            j = json.loads(line)
            out[j.get("id") or j.get("op")] = j
    return out
solo, mixed = load("solo_out"), load("mixed_out")
sibs = [f"sib{s}" for s in (11, 12, 13, 14, 15, 16)]

# A: fault isolation — the poisoned request fails; its siblings are exact.
assert mixed["poison"]["status"] == "error", mixed["poison"]
assert not mixed["poison"]["ok"]
for s in sibs:
    assert mixed[s]["status"] == "optimal", mixed[s]
    assert mixed[s]["objective"] == solo[s]["objective"], (s, mixed[s], solo[s])
    assert mixed[s]["nodes"] == solo[s]["nodes"], (s, mixed[s], solo[s])
# A: anytime degradation — usable incumbent, finite positive bound gap.
a = mixed["anytime"]
assert a["status"] == "degraded" and a["ok"] and a["degraded"], a
assert math.isfinite(a["gap"]) and a["gap"] > 0, a
assert a["total_ms"] < 5000, a  # the deadline actually bounded the request
# A: the daemon exposes its serve metrics and exits via the EOF close path.
assert "archex_serve_requests_total" in mixed["metrics"]["prometheus"]
assert mixed["shutdown"]["reason"] == "eof"

# B: explicit shedding — oldest droppables rejected, newest completes.
shed = load("shed_out")
rejected = [j for j in shed.values() if j.get("status") == "rejected"]
assert len(rejected) >= 2, shed
assert all(j["reason"] == "shed" for j in rejected), rejected
assert shed["shed14"]["status"] == "optimal", shed["shed14"]
assert shed["shed14"]["objective"] == solo["sib14"]["objective"]
assert shed["blocker"]["status"] in ("degraded", "timeout"), shed["blocker"]

# C: drain checkpointed the in-flight solve and named the file; the resumed
# run reproduces the uninterrupted objective.
drain = load("drain_out")
dm = drain["drainme"]
assert dm["status"] == "preempted" and dm["resumable"], dm
assert drain["shutdown"]["reason"] == "sigterm", drain["shutdown"]
assert drain["shutdown"]["preempted"] == 1
assert dm["checkpoint"] in drain["shutdown"]["checkpoints"]
resumed = load("resume_out")["resumed"]
assert resumed["status"] == "optimal", resumed
assert abs(resumed["objective"] - load("solo_out")["hard"]["objective"]) < 1e-9, (
    resumed, solo["hard"])
print("serve drill: isolation, anytime deadline, shedding, and drain/resume ok")
EOF

echo "=== serve: compiled sweep drill ==="
# The three-stage pipeline (docs/pipeline.md) over the wire: compile the
# tiny EPN spec once, re-request it (must be an LRU hit with the same
# fingerprint), run a 20-scenario cost-perturbation sweep against the
# cached artifact (warm count must be > 0), and check every sweep objective
# against a solo cold encode+solve of the same scenario through a
# cache-disabled daemon (--compiled-cache=0 makes each request pay the full
# naive path).
mkdir -p build/sweep_drill
python3 - > build/sweep_drill/sweep.ndjson <<'EOF'
import json
scen = [{"name": f"perturb-{i}", "edge_cost_scale": 1.0 + 0.01 * i}
        for i in range(20)]
base = {"domain": "epn", "scale": "tiny"}
print(json.dumps({"id": "c1", "op": "compile", **base}))
print(json.dumps({"id": "c2", "op": "compile", **base}))
print(json.dumps({"id": "sweep", "op": "sweep", **base, "sweep": scen}))
EOF
python3 - > build/sweep_drill/solo.ndjson <<'EOF'
import json
for i in range(20):
    print(json.dumps({"id": f"solo-{i}", "op": "solve_compiled",
                      "domain": "epn", "scale": "tiny",
                      "scenario": {"name": f"perturb-{i}",
                                   "edge_cost_scale": 1.0 + 0.01 * i}}))
EOF
# Control ops (metrics) are answered inline by the daemon, ahead of queued
# work — so drive it through a FIFO and only ask for the metrics snapshot
# once the sweep response has landed in the output file.
rm -f build/sweep_drill/in
mkfifo build/sweep_drill/in
build/tools/archex_serve --workers=1 --compiled-cache=2 \
  < build/sweep_drill/in > build/sweep_drill/sweep_out.ndjson &
sweep_pid=$!
exec 3> build/sweep_drill/in
cat build/sweep_drill/sweep.ndjson >&3
for _ in $(seq 600); do
  grep -q '"id":"sweep"' build/sweep_drill/sweep_out.ndjson 2>/dev/null && break
  sleep 0.2
done
printf '{"op":"metrics"}\n' >&3
exec 3>&-
wait "$sweep_pid"
build/tools/archex_batch --workers=2 --compiled-cache=0 \
  build/sweep_drill/solo.ndjson > build/sweep_drill/solo_out.ndjson

python3 - build/sweep_drill <<'EOF'
import json, sys
d = sys.argv[1]
def load(name):
    out = {}
    with open(f"{d}/{name}.ndjson") as f:
        for line in f:
            j = json.loads(line)
            out[j.get("id") or j.get("op")] = j
    return out
sweep, solo = load("sweep_out"), load("solo_out")

# Compile once, hit on re-request: same artifact, counted by the cache.
c1, c2 = sweep["c1"], sweep["c2"]
assert c1["status"] == "compiled" and c1["cache"] == "miss", c1
assert c2["status"] == "compiled" and c2["cache"] == "hit", c2
assert c1["fingerprint"] == c2["fingerprint"], (c1, c2)

# The sweep rode the cached artifact and warm-started its tail.
sw = sweep["sweep"]
assert sw["ok"] and sw["cache"] == "hit", sw
assert sw["fingerprint"] == c1["fingerprint"], (sw, c1)
assert len(sw["scenarios"]) == 20, len(sw["scenarios"])
assert sw["warm_solves"] > 0 and sw["cold_solves"] >= 1, sw
m = sweep["metrics"]["prometheus"]
assert "archex_serve_compile_cache_hits_total 2" in m, m
assert "archex_serve_sweep_warm_total" in m, m

# Every warm objective matches the solo cold encode+solve of its scenario.
for i, s in enumerate(sw["scenarios"]):
    assert s["ok"], s
    ref = solo[f"solo-{i}"]
    assert ref["ok"], ref
    tol = 1e-6 * max(1.0, abs(ref["objective"]))
    assert abs(s["objective"] - ref["objective"]) <= tol, (i, s, ref)
print("sweep drill: compile-once cache hit, warm sweep, objectives match cold")
EOF

echo "=== asan: configure + build (ASan + UBSan, -Werror) ==="
cmake --preset asan
cmake --build --preset asan -j "$(nproc)"

echo "=== asan: ctest (full suite) ==="
ctest --preset asan -j "$(nproc)"

echo "=== asan: focused fault-injection + checkpoint re-run ==="
# Already part of the full suite above; re-run focused so a sanitizer hit in
# the resilience machinery is attributed to this leg directly.
build-asan/tests/archex_tests \
  --gtest_filter='FaultPlan*:RecoveryLadder*:CheckpointTest*:DeadlineArming*:KernelCrossCheck*'

echo "=== asan: fault injection against the sparse LU kernel ==="
# Drive the singular-refactorization and NaN-pivot sites through the LU
# path end to end under ASan/UBSan: the recovery ladder must absorb both and
# the independent certifier must still sign off (--certify gates the exit).
build-asan/examples/milp_solve build/epn_ci_model.lp --threads=1 \
  --inject=singular:300 --certify > /dev/null
build-asan/examples/milp_solve build/epn_ci_model.lp --threads=1 \
  --inject=nan-pivot:200 --certify > /dev/null
echo "asan fault injection: LU-path singular + nan-pivot absorbed, certificates ok"

echo "=== tsan: configure + build ==="
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"

echo "=== tsan: ctest (parallel suites) ==="
ctest --preset tsan

echo "=== clang-tidy: src/ + tools/ ==="
if command -v clang-tidy > /dev/null 2>&1; then
  # The release configure exports build/compile_commands.json
  # (CMAKE_EXPORT_COMPILE_COMMANDS); .clang-tidy at the repo root holds the
  # check profile.
  find src tools -name '*.cpp' -print0 |
    xargs -0 -P "$(nproc)" -n 4 clang-tidy -p build --quiet
else
  echo "clang-tidy not installed: skipping the tidy leg (config: .clang-tidy)"
fi

echo "=== ci: all green ==="
