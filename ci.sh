#!/bin/sh
# Staged CI pipeline. Mirrors what the driver runs on every PR; keep it
# green.
#
#   ./ci.sh                 # all stages: build fmt lint test smoke faults durability tracing engines hybrid serving perfbench
#   ./ci.sh build test      # just those stages
#   ./ci.sh --list          # list stages with one-line descriptions
#   ./ci.sh --update-golden # refresh ci/golden/ from the current build
#
# Each stage is wall-clock timed; a failing stage is named in a
# trailing "== stage X: FAILED ==" line so the culprit is the last
# thing in the log.
#
# Stages:
#   build      - dune build @all
#   fmt        - dune build @fmt (skipped when ocamlformat is not installed)
#   lint       - static-analysis gate: guard-coverage verifier + elision
#                witness re-check over every workload x chunk mode x
#                optimizer on/off (trackfm_cli check); summary, classify
#                (text + schema-validated JSON) and shape dumps must be
#                byte-identical across two runs; an out-of-range
#                --object-size or --replicas must exit 1 naming the flag
#   test       - dune runtest (tier-1 unit/property/integration suites)
#   smoke      - quick bench-harness run; writes metrics JSON to _ci/metrics
#   faults     - fault-injection determinism matrix: fixed workloads x seeds,
#                each run twice (byte-identical counters required) and diffed
#                against the checked-in goldens in ci/golden/
#   durability - replicated-tier crash matrix: workloads x seeds x
#                replicas={1,3}; each run twice (byte-identical counters),
#                replicas=3 must finish with a correct checksum, replicas=1
#                must demonstrably lose data (wrong checksum, lost objects)
#   tracing    - observability gate: span-traced runs must not perturb the
#                sim (counters byte-identical to ci/golden/), the exported
#                Chrome trace must validate against ci/trace_schema.json,
#                and fixed-seed attribution exports must be byte-identical
#                across two runs (workloads x seeds matrix); the report
#                views (critical-path, slo) over an export must be
#                deterministic, and report's site-vs-counter
#                attribution cross-check must read OK on every line
#   engines    - execution-engine differential gate: workloads x chunk
#                modes x fault seeds run under both the interpreter and
#                the compiled engine with byte-identical counters JSON
#                (compiled additionally diffed against ci/golden/), the
#                same workloads x fault seeds under Fastswap (both
#                engines, diffed against ci/golden/fastswap-*.json), the
#                check matrix re-run with --engine compiled, and the
#                engine_speedup dispatch-throughput experiment must PASS
#   hybrid     - hybrid data-plane gate: fixed-seed routed runs (pointer
#                chase / llist x route mode x local budget) each run twice
#                under both engines (byte-identical counters required) and
#                diffed against ci/golden/hybrid-*.json; a routed
#                streaming workload must stay byte-identical to its
#                unrouted run (the classifier keeps its hands off); the
#                shadow validator cross-checks static classes against
#                observed dependent-load depths; the shape_routing bench
#                gate must PASS
#   serving    - overload-robustness gate: a short fixed-seed offered-load
#                sweep of the serving tier (backends x rates, faults
#                medium, controls on), each run twice (byte-identical
#                serving JSON required) and diffed against ci/golden/
#   perfbench  - smoke test of the repository benchmark (perfbench/smoke.py):
#                every workload untraced and traced at the tiny size must
#                report well-formed metrics with zero failed cells, and a
#                corrupted oracle must be caught
set -eu

cd "$(dirname "$0")"

CLI=_build/default/bin/trackfm_cli.exe
FAULT_WORKLOADS="stream-sum hashmap"
FAULT_SEEDS="1 2 3"
FAULT_SPEC=medium
SUMMARY_WORKLOADS="stream-sum kmeans analytics hashmap"
CLASSIFY_WORKLOADS="stream-sum kmeans analytics hashmap memcached pointer-chase llist"
SHAPE_WORKLOADS="llist pointer-chase analytics hashmap"
HYBRID_ROUTES="static profiled"
HYBRID_PCTS="25 100"
DUR_WORKLOADS="stream-sum analytics"
DUR_SEEDS="1 2"
DUR_SPEC=crash=1500000:250000

stage_build() {
    echo "== stage build: dune build @all =="
    dune build @all
}

stage_fmt() {
    # Formatting is advisory: the check only runs where ocamlformat is
    # installed (the pinned build image does not ship it).
    if command -v ocamlformat >/dev/null 2>&1; then
        echo "== stage fmt: dune build @fmt =="
        dune build @fmt
    else
        echo "== stage fmt: skipped (ocamlformat not installed) =="
    fi
}

stage_lint() {
    echo "== stage lint: guard-coverage verifier + elision witness re-check =="
    dune build bin/trackfm_cli.exe
    # The check matrix runs every workload x chunk mode x optimizer
    # setting both with and without interprocedural summaries.
    "$CLI" check
    # Summary determinism: the call-graph/summary dump must be
    # byte-identical across two runs of the same build.
    echo "== stage lint: summary dump determinism =="
    mkdir -p _ci/summaries
    for w in $SUMMARY_WORKLOADS; do
        "$CLI" summaries -w "$w" >"_ci/summaries/$w.txt"
        "$CLI" summaries -w "$w" >"_ci/summaries/$w.txt.rerun"
        if ! cmp -s "_ci/summaries/$w.txt" "_ci/summaries/$w.txt.rerun"; then
            echo "lint: NONDETERMINISTIC summaries dump for $w" >&2
            diff "_ci/summaries/$w.txt" "_ci/summaries/$w.txt.rerun" >&2 || true
            exit 1
        fi
    done
    # Classification determinism: the access-pattern dump (and the
    # routing decisions it drives) must be byte-identical across two
    # runs of the same build.
    echo "== stage lint: access-pattern classification determinism =="
    mkdir -p _ci/classify
    for w in $CLASSIFY_WORKLOADS; do
        "$CLI" classify -w "$w" >"_ci/classify/$w.txt"
        "$CLI" classify -w "$w" >"_ci/classify/$w.txt.rerun"
        if ! cmp -s "_ci/classify/$w.txt" "_ci/classify/$w.txt.rerun"; then
            echo "lint: NONDETERMINISTIC classification dump for $w" >&2
            diff "_ci/classify/$w.txt" "_ci/classify/$w.txt.rerun" >&2 || true
            exit 1
        fi
        # The machine-readable variant must be deterministic too, and
        # must satisfy the checked-in schema.
        "$CLI" classify -w "$w" --json >"_ci/classify/$w.json"
        "$CLI" classify -w "$w" --json >"_ci/classify/$w.json.rerun"
        if ! cmp -s "_ci/classify/$w.json" "_ci/classify/$w.json.rerun"; then
            echo "lint: NONDETERMINISTIC classification JSON for $w" >&2
            diff "_ci/classify/$w.json" "_ci/classify/$w.json.rerun" >&2 || true
            exit 1
        fi
        if ! "$CLI" validate --schema ci/classify_schema.json "_ci/classify/$w.json" >/dev/null; then
            echo "lint: classify --json for $w violates ci/classify_schema.json" >&2
            exit 1
        fi
    done
    # Shape-analysis determinism: the interprocedural shape dump must be
    # byte-identical across two runs of the same build.
    echo "== stage lint: shape analysis determinism =="
    mkdir -p _ci/shape
    for w in $SHAPE_WORKLOADS; do
        "$CLI" shape -w "$w" >"_ci/shape/$w.txt"
        "$CLI" shape -w "$w" >"_ci/shape/$w.txt.rerun"
        if ! cmp -s "_ci/shape/$w.txt" "_ci/shape/$w.txt.rerun"; then
            echo "lint: NONDETERMINISTIC shape dump for $w" >&2
            diff "_ci/shape/$w.txt" "_ci/shape/$w.txt.rerun" >&2 || true
            exit 1
        fi
    done
    # Out-of-range sizes are named errors, not exceptions from deep
    # inside a run.
    echo "== stage lint: flag validation =="
    for o in 100 0; do
        lint_bad_flag --object-size run -w stream-sum -s trackfm -o "$o"
        lint_bad_flag --object-size report -w stream-sum -s trackfm -o "$o"
        lint_bad_flag --object-size report critical-path -w stream-sum -o "$o"
        lint_bad_flag --object-size report slo -w stream-sum -o "$o" \
            --slo 'sum:p99<=1m'
        lint_bad_flag --object-size sweep -w stream-sum -o "$o"
    done
    lint_bad_flag --replicas run -w stream-sum -s fastswap --replicas 9
    lint_bad_flag --replicas serve -b trackfm --replicas 9
}

# $1 is the flag a bad value was passed to; the rest is the CLI command
# line. The run must exit 1 with a message naming the flag.
lint_bad_flag() {
    flag=$1
    shift
    if "$CLI" "$@" >/dev/null 2>_ci/lint-flag.err; then rc=0; else rc=$?; fi
    if [ "$rc" -ne 1 ] || ! grep -q -- "$flag" _ci/lint-flag.err \
        || grep -q "uncaught exception" _ci/lint-flag.err; then
        echo "lint: '$*' must exit 1 naming $flag (exit $rc):" >&2
        cat _ci/lint-flag.err >&2
        exit 1
    fi
}

stage_test() {
    echo "== stage test: dune runtest =="
    dune runtest
}

stage_smoke() {
    echo "== stage smoke: bench harness (quick) =="
    mkdir -p _ci/metrics
    dune exec bench/main.exe -- table1 fig6 --quick --metrics-dir _ci/metrics
    for f in table1 fig6; do
        if [ ! -s "_ci/metrics/$f.json" ]; then
            echo "smoke: missing metrics JSON _ci/metrics/$f.json" >&2
            exit 1
        fi
    done
}

stage_perfbench() {
    echo "== stage perfbench: benchmark smoke test =="
    python3 perfbench/smoke.py
}

stage_faults() {
    echo "== stage faults: determinism matrix ($FAULT_SPEC; seeds $FAULT_SEEDS) =="
    dune build bin/trackfm_cli.exe
    mkdir -p _ci/faults
    fail=0
    for w in $FAULT_WORKLOADS; do
        for seed in $FAULT_SEEDS; do
            out="_ci/faults/$w-seed$seed.json"
            "$CLI" run -w "$w" -s trackfm -m 25 \
                --faults "$FAULT_SPEC" --fault-seed "$seed" \
                --counters-json "$out" >/dev/null
            "$CLI" run -w "$w" -s trackfm -m 25 \
                --faults "$FAULT_SPEC" --fault-seed "$seed" \
                --counters-json "$out.rerun" >/dev/null
            if ! cmp -s "$out" "$out.rerun"; then
                echo "faults: NONDETERMINISTIC: $w seed $seed differs between two runs" >&2
                diff "$out" "$out.rerun" >&2 || true
                fail=1
            fi
            golden="ci/golden/$w-seed$seed.json"
            if [ ! -f "$golden" ]; then
                echo "faults: missing golden $golden (regenerate with: cp $out $golden)" >&2
                fail=1
            elif ! cmp -s "$golden" "$out"; then
                echo "faults: DRIFT: $w seed $seed differs from $golden" >&2
                diff "$golden" "$out" >&2 || true
                fail=1
            fi
        done
    done
    if [ "$fail" -ne 0 ]; then
        echo "faults stage failed" >&2
        exit 1
    fi
}

stage_durability() {
    echo "== stage durability: crash matrix ($DUR_SPEC; seeds $DUR_SEEDS) =="
    dune build bin/trackfm_cli.exe
    mkdir -p _ci/durability
    fail=0
    for w in $DUR_WORKLOADS; do
        for seed in $DUR_SEEDS; do
            for tier in "1 1" "3 2"; do
                set -- $tier
                r=$1; k=$2
                out="_ci/durability/$w-seed$seed-r$r.json"
                log="_ci/durability/$w-seed$seed-r$r.log"
                "$CLI" run -w "$w" -s trackfm -m 25 \
                    --faults "$DUR_SPEC" --fault-seed "$seed" \
                    --replicas "$r" --ack "$k" \
                    --counters-json "$out" >"$log"
                "$CLI" run -w "$w" -s trackfm -m 25 \
                    --faults "$DUR_SPEC" --fault-seed "$seed" \
                    --replicas "$r" --ack "$k" \
                    --counters-json "$out.rerun" >/dev/null
                if ! cmp -s "$out" "$out.rerun"; then
                    echo "durability: NONDETERMINISTIC: $w seed $seed r=$r differs between two runs" >&2
                    diff "$out" "$out.rerun" >&2 || true
                    fail=1
                fi
                if [ "$r" = 1 ]; then
                    # A single node under this crash schedule must lose
                    # data: wrong answer, nonzero net.lost_objects.
                    if ! grep -q 'WRONG' "$log"; then
                        echo "durability: $w seed $seed r=1 did NOT lose data (checksum correct?)" >&2
                        fail=1
                    fi
                    if ! grep -q '"net.lost_objects":[1-9]' "$out"; then
                        echo "durability: $w seed $seed r=1 reports no lost objects" >&2
                        fail=1
                    fi
                else
                    # Three replicas with ack=2 must ride the identical
                    # schedule to a correct checksum with nothing lost.
                    if ! grep -q '(correct)' "$log"; then
                        echo "durability: $w seed $seed r=$r checksum WRONG" >&2
                        fail=1
                    fi
                    if grep -q '"net.lost_objects"' "$out"; then
                        echo "durability: $w seed $seed r=$r lost objects despite replication" >&2
                        fail=1
                    fi
                fi
            done
        done
    done
    if [ "$fail" -ne 0 ]; then
        echo "durability stage failed" >&2
        exit 1
    fi
}

TRACE_WORKLOADS="hashmap kmeans"
TRACE_SEEDS="1 2"

stage_tracing() {
    echo "== stage tracing: span attribution gate ($FAULT_SPEC; seeds $TRACE_SEEDS) =="
    dune build bin/trackfm_cli.exe
    mkdir -p _ci/tracing
    fail=0
    # Zero-cost check, read the strong way: a run with spans, trace and
    # attribution all enabled must leave every counter byte-identical to
    # the telemetry-off goldens in ci/golden/.
    for w in $FAULT_WORKLOADS; do
        for seed in $FAULT_SEEDS; do
            out="_ci/tracing/$w-seed$seed-counters.json"
            "$CLI" run -w "$w" -s trackfm -m 25 \
                --faults "$FAULT_SPEC" --fault-seed "$seed" \
                --trace "_ci/tracing/$w-seed$seed-trace.json" \
                --attribution "_ci/tracing/$w-seed$seed-attr-on.json" \
                --counters-json "$out" >/dev/null
            golden="ci/golden/$w-seed$seed.json"
            if ! cmp -s "$golden" "$out"; then
                echo "tracing: PERTURBED: $w seed $seed counters differ from $golden with telemetry on" >&2
                diff "$golden" "$out" >&2 || true
                fail=1
            fi
        done
    done
    # The exported Chrome trace must satisfy the checked-in schema.
    for f in _ci/tracing/*-trace.json; do
        if ! "$CLI" validate --schema ci/trace_schema.json "$f" >/dev/null; then
            echo "tracing: $f violates ci/trace_schema.json" >&2
            fail=1
        fi
    done
    # Attribution determinism: same workload, seed and build must export
    # byte-identical attribution JSON across two runs.
    for w in $TRACE_WORKLOADS; do
        for seed in $TRACE_SEEDS; do
            out="_ci/tracing/$w-seed$seed-attr.json"
            "$CLI" run -w "$w" -s trackfm -m 25 \
                --faults "$FAULT_SPEC" --fault-seed "$seed" \
                --attribution "$out" >/dev/null
            "$CLI" run -w "$w" -s trackfm -m 25 \
                --faults "$FAULT_SPEC" --fault-seed "$seed" \
                --attribution "$out.rerun" >/dev/null
            if ! cmp -s "$out" "$out.rerun"; then
                echo "tracing: NONDETERMINISTIC: $w seed $seed attribution differs between two runs" >&2
                fail=1
            fi
            # The invariant line is printed by the run itself; also make
            # sure the export carries a clean verdict.
            if ! grep -q '"violations":0' "$out"; then
                echo "tracing: $w seed $seed attribution reports invariant violations" >&2
                fail=1
            fi
        done
    done
    # The report views over the hashmap export written above: each must
    # exit 0 and print the same bytes on two runs.
    attr=_ci/tracing/hashmap-seed1-attr.json
    for i in 1 2; do
        if ! "$CLI" report critical-path --from "$attr" \
            >"_ci/tracing/critical-path.txt.$i"; then
            echo "tracing: report critical-path --from $attr failed" >&2
            fail=1
        fi
        if ! "$CLI" report slo --from "$attr" --slo 'lookup:p99<=250k' \
            >"_ci/tracing/slo.txt.$i"; then
            echo "tracing: report slo --from $attr failed" >&2
            fail=1
        fi
    done
    for v in critical-path slo; do
        if ! cmp -s "_ci/tracing/$v.txt.1" "_ci/tracing/$v.txt.2"; then
            echo "tracing: NONDETERMINISTIC report $v output" >&2
            fail=1
        fi
    done
    # The telemetry sink's per-site totals must equal the tfm.* clock
    # counters: every attribution cross-check line of report reads OK.
    rep=_ci/tracing/report-hashmap.txt
    "$CLI" report -w hashmap -s trackfm >"$rep"
    xcheck=$(sed -n '/attribution cross-check/,/^$/p' "$rep" | grep 'tfm\.' || true)
    if [ "$(printf '%s\n' "$xcheck" | grep -c ' OK$')" -lt 4 ] \
        || printf '%s\n' "$xcheck" | grep -qv ' OK$'; then
        echo "tracing: report attribution cross-check is not OK on every line:" >&2
        printf '%s\n' "$xcheck" >&2
        fail=1
    fi
    # A fault-preset run with the recorder armed must dump, and the dump
    # must be identical under the same fault seed.
    for seed in $TRACE_SEEDS; do
        fr="_ci/tracing/flight-seed$seed.json"
        "$CLI" run -w hashmap -s trackfm -m 25 \
            --faults "$FAULT_SPEC" --fault-seed "$seed" \
            --flight-recorder "$fr" >/dev/null
        "$CLI" run -w hashmap -s trackfm -m 25 \
            --faults "$FAULT_SPEC" --fault-seed "$seed" \
            --flight-recorder "$fr.rerun" >/dev/null
        if [ ! -s "$fr" ]; then
            echo "tracing: flight recorder did not dump for seed $seed" >&2
            fail=1
        elif ! cmp -s "$fr" "$fr.rerun"; then
            echo "tracing: NONDETERMINISTIC flight dump for seed $seed" >&2
            fail=1
        fi
    done
    if [ "$fail" -ne 0 ]; then
        echo "tracing stage failed" >&2
        exit 1
    fi
}

ENGINE_WORKLOADS="stream-sum hashmap"
ENGINE_SEEDS="1 2 3"

SERVING_BACKENDS="trackfm fastswap aifm"
SERVING_RATES="40 130"
SERVING_ARGS="--requests 1500 --keys 4096 --budget 32768 --faults medium --fault-seed 1 --seed 42"

serving_run() {
    # $1 backend, $2 rate, $3 output JSON
    "$CLI" serve -b "$1" --rate "$2" $SERVING_ARGS \
        --serving-json "$3" >/dev/null
}

stage_serving() {
    echo "== stage serving: overload sweep determinism (rates $SERVING_RATES; faults medium, seed 1) =="
    dune build bin/trackfm_cli.exe
    mkdir -p _ci/serving
    fail=0
    for b in $SERVING_BACKENDS; do
        for rate in $SERVING_RATES; do
            out="_ci/serving/$b-r$rate.json"
            serving_run "$b" "$rate" "$out"
            serving_run "$b" "$rate" "$out.rerun"
            if ! cmp -s "$out" "$out.rerun"; then
                echo "serving: NONDETERMINISTIC: $b rate $rate differs between two runs" >&2
                diff "$out" "$out.rerun" >&2 || true
                fail=1
            fi
            golden="ci/golden/serving-$b-r$rate.json"
            if [ ! -f "$golden" ]; then
                echo "serving: missing golden $golden (regenerate with: ./ci.sh --update-golden)" >&2
                fail=1
            elif ! cmp -s "$golden" "$out"; then
                echo "serving: DRIFT: $b rate $rate differs from $golden" >&2
                diff "$golden" "$out" >&2 || true
                fail=1
            fi
        done
    done
    if [ "$fail" -ne 0 ]; then
        echo "serving stage failed" >&2
        exit 1
    fi
}

stage_engines() {
    echo "== stage engines: interp-vs-compiled differential matrix ($FAULT_SPEC; seeds $ENGINE_SEEDS) =="
    dune build bin/trackfm_cli.exe bench/main.exe
    mkdir -p _ci/engines
    fail=0
    # Every cell runs the identical workload/chunk-mode/fault-seed under
    # both engines; the deterministic counters JSON (inputs, checksum,
    # cycles, every counter) must be byte-identical. Gated-chunking
    # cells are additionally diffed against the checked-in goldens, so
    # the compiled engine is pinned to the same record the interpreter
    # has been pinned to since the faults stage landed.
    for w in $ENGINE_WORKLOADS; do
        for chunk in gated off; do
            for seed in $ENGINE_SEEDS; do
                base="_ci/engines/$w-$chunk-seed$seed"
                "$CLI" run -w "$w" -s trackfm -m 25 -c "$chunk" \
                    --faults "$FAULT_SPEC" --fault-seed "$seed" \
                    --engine interp --counters-json "$base-interp.json" >/dev/null
                "$CLI" run -w "$w" -s trackfm -m 25 -c "$chunk" \
                    --faults "$FAULT_SPEC" --fault-seed "$seed" \
                    --engine compiled --counters-json "$base-compiled.json" >/dev/null
                if ! cmp -s "$base-interp.json" "$base-compiled.json"; then
                    echo "engines: DIVERGED: $w chunk=$chunk seed $seed interp vs compiled" >&2
                    diff "$base-interp.json" "$base-compiled.json" >&2 || true
                    fail=1
                fi
                if [ "$chunk" = gated ]; then
                    golden="ci/golden/$w-seed$seed.json"
                    if ! cmp -s "$golden" "$base-compiled.json"; then
                        echo "engines: DRIFT: $w seed $seed compiled differs from $golden" >&2
                        diff "$golden" "$base-compiled.json" >&2 || true
                        fail=1
                    fi
                fi
            done
        done
    done
    # Kernel paging (Fastswap) cells: the same workloads and fault seeds
    # with every heap access through the swap page table, interp and
    # compiled byte-identical and both pinned to ci/golden/fastswap-*.
    for w in $ENGINE_WORKLOADS; do
        for seed in $ENGINE_SEEDS; do
            base="_ci/engines/fastswap-$w-seed$seed"
            for engine in interp compiled; do
                "$CLI" run -w "$w" -s fastswap -m 25 \
                    --faults "$FAULT_SPEC" --fault-seed "$seed" \
                    --engine "$engine" --counters-json "$base-$engine.json" >/dev/null
            done
            if ! cmp -s "$base-interp.json" "$base-compiled.json"; then
                echo "engines: DIVERGED: fastswap $w seed $seed interp vs compiled" >&2
                diff "$base-interp.json" "$base-compiled.json" >&2 || true
                fail=1
            fi
            golden="ci/golden/fastswap-$w-seed$seed.json"
            if [ ! -f "$golden" ]; then
                echo "engines: missing golden $golden (regenerate with: ./ci.sh --update-golden)" >&2
                fail=1
            elif ! cmp -s "$golden" "$base-compiled.json"; then
                echo "engines: DRIFT: fastswap $w seed $seed compiled differs from $golden" >&2
                diff "$golden" "$base-compiled.json" >&2 || true
                fail=1
            fi
        done
    done
    # The check matrix must also hold under the compiled engine (check
    # re-runs every workload under both engines and requires identical
    # results and counters).
    "$CLI" check --engine compiled
    # Dispatch-throughput gate: engine_speedup must report PASS (at
    # least two cases >= 5x); full-size, not --quick, so the ratio is
    # measured on runs long enough to be stable.
    if ! dune exec bench/main.exe -- engine_speedup >_ci/engines/bench.log 2>&1; then
        cat _ci/engines/bench.log >&2
        echo "engines: engine_speedup experiment failed" >&2
        fail=1
    elif ! grep -q "engine_speedup PASS" _ci/engines/bench.log; then
        cat _ci/engines/bench.log >&2
        echo "engines: dispatch-throughput gate did not PASS" >&2
        fail=1
    fi
    if [ "$fail" -ne 0 ]; then
        echo "engines stage failed" >&2
        exit 1
    fi
}

stage_hybrid() {
    echo "== stage hybrid: routed-run determinism (routes $HYBRID_ROUTES; budgets $HYBRID_PCTS%) =="
    dune build bin/trackfm_cli.exe
    mkdir -p _ci/hybrid
    fail=0
    # Every routed run is repeated (byte-identical counters JSON
    # required), re-run under the compiled engine (must match the
    # interpreter bit for bit — the routing checker is enforced in both),
    # and the compiled record is diffed against the checked-in golden.
    for route in $HYBRID_ROUTES; do
        for pct in $HYBRID_PCTS; do
            base="_ci/hybrid/pointer-chase-$route-m$pct"
            "$CLI" run -w pointer-chase -s trackfm -m "$pct" --route "$route" \
                --engine interp --counters-json "$base-interp.json" >/dev/null
            "$CLI" run -w pointer-chase -s trackfm -m "$pct" --route "$route" \
                --engine interp --counters-json "$base-interp.json.rerun" >/dev/null
            if ! cmp -s "$base-interp.json" "$base-interp.json.rerun"; then
                echo "hybrid: NONDETERMINISTIC: pointer-chase route=$route m=$pct" >&2
                diff "$base-interp.json" "$base-interp.json.rerun" >&2 || true
                fail=1
            fi
            "$CLI" run -w pointer-chase -s trackfm -m "$pct" --route "$route" \
                --engine compiled --counters-json "$base-compiled.json" >/dev/null
            if ! cmp -s "$base-interp.json" "$base-compiled.json"; then
                echo "hybrid: DIVERGED: pointer-chase route=$route m=$pct interp vs compiled" >&2
                diff "$base-interp.json" "$base-compiled.json" >&2 || true
                fail=1
            fi
            golden="ci/golden/hybrid-pointer-chase-$route-m$pct.json"
            if [ ! -f "$golden" ]; then
                echo "hybrid: missing golden $golden (regenerate with: ./ci.sh --update-golden)" >&2
                fail=1
            elif ! cmp -s "$golden" "$base-compiled.json"; then
                echo "hybrid: DRIFT: route=$route m=$pct differs from $golden" >&2
                diff "$golden" "$base-compiled.json" >&2 || true
                fail=1
            fi
        done
    done
    # Shape-routed workload: llist's traversal is helper-hidden, so its
    # static routes exist only through the shape analysis. Same regimen:
    # run twice (byte-identical), cross-engine, diffed against goldens.
    for pct in $HYBRID_PCTS; do
        base="_ci/hybrid/llist-static-m$pct"
        "$CLI" run -w llist -s trackfm -m "$pct" --route static \
            --engine interp --counters-json "$base-interp.json" >/dev/null
        "$CLI" run -w llist -s trackfm -m "$pct" --route static \
            --engine interp --counters-json "$base-interp.json.rerun" >/dev/null
        if ! cmp -s "$base-interp.json" "$base-interp.json.rerun"; then
            echo "hybrid: NONDETERMINISTIC: llist route=static m=$pct" >&2
            diff "$base-interp.json" "$base-interp.json.rerun" >&2 || true
            fail=1
        fi
        "$CLI" run -w llist -s trackfm -m "$pct" --route static \
            --engine compiled --counters-json "$base-compiled.json" >/dev/null
        if ! cmp -s "$base-interp.json" "$base-compiled.json"; then
            echo "hybrid: DIVERGED: llist route=static m=$pct interp vs compiled" >&2
            diff "$base-interp.json" "$base-compiled.json" >&2 || true
            fail=1
        fi
        golden="ci/golden/hybrid-llist-static-m$pct.json"
        if [ ! -f "$golden" ]; then
            echo "hybrid: missing golden $golden (regenerate with: ./ci.sh --update-golden)" >&2
            fail=1
        elif ! cmp -s "$golden" "$base-compiled.json"; then
            echo "hybrid: DRIFT: llist m=$pct differs from $golden" >&2
            diff "$golden" "$base-compiled.json" >&2 || true
            fail=1
        fi
    done
    # Without shape facts the same compile must route nothing: the
    # --no-shapes run must be byte-identical to an unrouted run.
    "$CLI" run -w llist -s trackfm -m 25 --route off \
        --counters-json _ci/hybrid/llist-off.json >/dev/null
    "$CLI" run -w llist -s trackfm -m 25 --route static --no-shapes \
        --counters-json _ci/hybrid/llist-noshapes.json >/dev/null
    if ! cmp -s _ci/hybrid/llist-off.json _ci/hybrid/llist-noshapes.json; then
        echo "hybrid: shape-blind routing perturbed the helper-hidden workload" >&2
        diff _ci/hybrid/llist-off.json _ci/hybrid/llist-noshapes.json >&2 || true
        fail=1
    fi
    # Dynamic audit: the shadow validator executes the statically routed
    # llist under the interpreter's depth recorder and cross-checks every
    # static class; any mismatch (e.g. a lying shape summary that
    # misrouted a site) fails the gate.
    if ! "$CLI" shape -w llist --shadow -m 100 >_ci/hybrid/shadow.log 2>&1; then
        cat _ci/hybrid/shadow.log >&2
        echo "hybrid: shadow validator failed" >&2
        fail=1
    elif ! grep -q "shape-shadow PASS" _ci/hybrid/shadow.log; then
        cat _ci/hybrid/shadow.log >&2
        echo "hybrid: shadow validation did not PASS" >&2
        fail=1
    fi
    # Zero-routing identity: on a streaming workload the classifier
    # routes nothing, so route=static must be byte-identical to
    # route=off — down to the lazily-constructed swap never existing.
    "$CLI" run -w analytics -s trackfm -m 25 --route off \
        --counters-json _ci/hybrid/analytics-off.json >/dev/null
    "$CLI" run -w analytics -s trackfm -m 25 --route static \
        --counters-json _ci/hybrid/analytics-static.json >/dev/null
    if ! cmp -s _ci/hybrid/analytics-off.json _ci/hybrid/analytics-static.json; then
        echo "hybrid: routing perturbed an unrouted streaming workload" >&2
        diff _ci/hybrid/analytics-off.json _ci/hybrid/analytics-static.json >&2 || true
        fail=1
    fi
    # The two-directional performance gate (and the cross-engine
    # checksum identity) lives in the bench harness.
    if ! dune exec bench/main.exe -- hybrid_routing --quick >_ci/hybrid/bench.log 2>&1; then
        cat _ci/hybrid/bench.log >&2
        echo "hybrid: hybrid_routing experiment failed" >&2
        fail=1
    elif ! grep -q "hybrid_routing PASS" _ci/hybrid/bench.log; then
        cat _ci/hybrid/bench.log >&2
        echo "hybrid: routing gate did not PASS" >&2
        fail=1
    fi
    # Shape-analysis performance gate: routing helper-hidden chases must
    # beat the shape-blind hybrid (and nothing may route without shapes).
    if ! dune exec bench/main.exe -- shape_routing --quick >_ci/hybrid/shape-bench.log 2>&1; then
        cat _ci/hybrid/shape-bench.log >&2
        echo "hybrid: shape_routing experiment failed" >&2
        fail=1
    elif ! grep -q "shape_routing PASS" _ci/hybrid/shape-bench.log; then
        cat _ci/hybrid/shape-bench.log >&2
        echo "hybrid: shape-routing gate did not PASS" >&2
        fail=1
    fi
    if [ "$fail" -ne 0 ]; then
        echo "hybrid stage failed" >&2
        exit 1
    fi
}

# Refresh the checked-in goldens from the current build (run after an
# intentional counter/format change, then commit the diff).
update_golden() {
    echo "== update-golden: regenerating ci/golden/ =="
    dune build bin/trackfm_cli.exe
    mkdir -p ci/golden
    for w in $FAULT_WORKLOADS; do
        for seed in $FAULT_SEEDS; do
            "$CLI" run -w "$w" -s trackfm -m 25 \
                --faults "$FAULT_SPEC" --fault-seed "$seed" \
                --counters-json "ci/golden/$w-seed$seed.json" >/dev/null
            echo "  ci/golden/$w-seed$seed.json"
        done
    done
    for w in $ENGINE_WORKLOADS; do
        for seed in $ENGINE_SEEDS; do
            "$CLI" run -w "$w" -s fastswap -m 25 \
                --faults "$FAULT_SPEC" --fault-seed "$seed" \
                --counters-json "ci/golden/fastswap-$w-seed$seed.json" >/dev/null
            echo "  ci/golden/fastswap-$w-seed$seed.json"
        done
    done
    for b in $SERVING_BACKENDS; do
        for rate in $SERVING_RATES; do
            serving_run "$b" "$rate" "ci/golden/serving-$b-r$rate.json"
            echo "  ci/golden/serving-$b-r$rate.json"
        done
    done
    for route in $HYBRID_ROUTES; do
        for pct in $HYBRID_PCTS; do
            "$CLI" run -w pointer-chase -s trackfm -m "$pct" --route "$route" \
                --counters-json "ci/golden/hybrid-pointer-chase-$route-m$pct.json" >/dev/null
            echo "  ci/golden/hybrid-pointer-chase-$route-m$pct.json"
        done
    done
    for pct in $HYBRID_PCTS; do
        "$CLI" run -w llist -s trackfm -m "$pct" --route static \
            --counters-json "ci/golden/hybrid-llist-static-m$pct.json" >/dev/null
        echo "  ci/golden/hybrid-llist-static-m$pct.json"
    done
}

if [ "${1:-}" = "--update-golden" ]; then
    update_golden
    exit 0
fi

if [ "${1:-}" = "--list" ]; then
    cat <<'EOF'
build       dune build @all
fmt         dune build @fmt (skipped when ocamlformat is not installed)
lint        guard-coverage verifier + elision witnesses + summary/classify/shape determinism
test        dune runtest (tier-1 unit/property/integration suites)
smoke       quick bench-harness run with metrics JSON export
faults      fault-injection determinism matrix vs ci/golden/
durability  replicated-tier crash matrix (r=1 must lose data, r=3 must not)
tracing     span tracing must not perturb counters; trace schema + attribution
engines     interp-vs-compiled differential matrix (trackfm + fastswap) + dispatch-throughput gate
hybrid      routed-run determinism + goldens + routing/shape gates + shadow audit
serving     fixed-seed overload sweep of the serving tier vs ci/golden/
perfbench   smoke test of the repository benchmark (perfbench/smoke.py)
EOF
    exit 0
fi

STAGES="${*:-build fmt lint test smoke faults durability tracing engines hybrid serving perfbench}"

# Name the failing stage at the very end of the log, where it is hardest
# to miss (set -e aborts mid-stage, possibly far above).
CURRENT_STAGE=""
report_failure() {
    status=$?
    if [ "$status" -ne 0 ] && [ -n "$CURRENT_STAGE" ]; then
        echo "== stage $CURRENT_STAGE: FAILED ==" >&2
    fi
}
trap report_failure EXIT

for s in $STAGES; do
    CURRENT_STAGE=$s
    stage_t0=$(date +%s)
    case "$s" in
        build)      stage_build ;;
        fmt)        stage_fmt ;;
        lint)       stage_lint ;;
        test)       stage_test ;;
        smoke)      stage_smoke ;;
        faults)     stage_faults ;;
        durability) stage_durability ;;
        tracing)    stage_tracing ;;
        engines)    stage_engines ;;
        hybrid)     stage_hybrid ;;
        serving)    stage_serving ;;
        perfbench)  stage_perfbench ;;
        *)
            echo "unknown stage '$s' (see ./ci.sh --list)" >&2
            exit 2
            ;;
    esac
    echo "== stage $s: ok in $(($(date +%s) - stage_t0))s =="
done
CURRENT_STAGE=""

echo "CI OK"
