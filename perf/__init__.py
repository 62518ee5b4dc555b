"""The repository's benchmark: five seeded workloads measured end to
end, plus a traced per-layer ledger. See ``perf/README.md``."""
