# Developer entry points. PYTHONPATH=src keeps every target working in
# environments without an editable install.
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint coverage bench-smoke lifecycle-smoke stream-smoke gpu-smoke gpu-baseline chaos-soak chaos-smoke incidents-smoke incidents-bench incidents-bench-check incidents-sweep docs-check pipeline clean-cache all

all: lint test docs-check

test:                ## tier-1 suite (unit + property + integration)
	$(PYTHON) -m pytest -x -q

lint:                ## ruff when installed, stdlib fallback linter otherwise
	$(PYTHON) tools/lint.py

coverage:            ## tier-1 suite under pytest-cov, gated at the pyproject floor
	$(PYTHON) tools/coverage_gate.py

bench-smoke:         ## one cheap benchmark end-to-end (cache-backed fixtures)
	$(PYTHON) -m pytest benchmarks/bench_table2_correlation.py -q

lifecycle-smoke:     ## CI gate: feedback -> drift -> shadow -> promote -> rollback over HTTP
	$(PYTHON) tools/smoke.py lifecycle

stream-smoke:        ## CI gate: small --stream build byte-identical to monolithic
	$(PYTHON) tools/smoke.py stream

gpu-smoke:           ## CI gate: GPU byte-identity + both tracks vs SCORECARD_gpu.json
	$(PYTHON) tools/smoke.py gpu

gpu-baseline:        ## rerun the gpu smoke and rewrite SCORECARD_gpu.json
	$(PYTHON) tools/smoke.py gpu --update

chaos-soak:          ## long chaos soak: every point fires, audit_bundle clean
	$(PYTHON) tools/smoke.py chaos --requests-per-client 1000

chaos-smoke:         ## CI gate: short chaos soak (same audit, a few seconds)
	$(PYTHON) tools/smoke.py chaos

incidents-smoke:     ## CI gate: control + cache-corrupt graded, audited, digest rerun
	$(PYTHON) tools/smoke.py incidents

incidents-bench:     ## run the full incident catalog, rewrite SCORECARD_incidents.json
	$(PYTHON) tools/incidents_bench.py

incidents-bench-check: ## verify the committed scorecard still reproduces
	$(PYTHON) tools/incidents_bench.py --check

incidents-sweep:     ## the slow-marked incident catalog sweep (weekly CI;
                     ## tier-1 skips these via the pyproject -m filter)
	$(PYTHON) -m pytest -m slow -q

docs-check:          ## every public symbol has a docstring and an API.md entry
	$(PYTHON) tools/docs_check.py

pipeline:            ## build both paper-scale datasets through the cache
	$(PYTHON) -m repro pipeline run --both-systems --workers 2

clean-cache:         ## drop the benchmark artifact cache (bench scratch dir)
	$(PYTHON) -c "import sys; sys.path.insert(0, 'tools'); \
	from bench_paths import bench_cache_dir; print(bench_cache_dir())" \
	| xargs -I{} $(PYTHON) -m repro pipeline clean --all --cache-dir {}
