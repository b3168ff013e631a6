package obs

// Canonical metric names. The functional simulator and the timing model
// export overlapping vocabularies ("loads" means the same event in both);
// keeping the shared names here stops the exporters and their consumers
// from drifting apart one string literal at a time. Names unique to one
// exporter stay at its AddTo site.
const (
	// PrefixSim and PrefixUarch namespace the two exporters' metrics in a
	// shared registry (e.g. "sim.loads" vs "uarch.loads": dynamic load
	// instructions counted functionally vs. loads the pipeline executed).
	PrefixSim   = "sim."
	PrefixUarch = "uarch."

	// MetricLoads / MetricStores count executed memory operations; both
	// exporters emit them under their own prefix.
	MetricLoads  = "loads"
	MetricStores = "stores"

	// MetricDynamicInstructions is the functional dynamic instruction
	// count; MetricInstructions the timing model's retired count. A run
	// that finishes cleanly reports the same value for both.
	MetricDynamicInstructions = "dynamic_instructions"
	MetricInstructions        = "instructions"

	// MetricCycles and MetricIssueActiveCycles carry the timing model's
	// closed cycle ledger: cycles = issue_active_cycles + Σ stall.*.
	MetricCycles            = "cycles"
	MetricIssueActiveCycles = "issue_active_cycles"

	// MetricOffloadFraction is the fraction of dynamic instructions the
	// partitioner moved to the augmented FP subsystem — the paper's
	// headline per-run number.
	MetricOffloadFraction = "offload_fraction"

	// PrefixTimeline and PrefixPhase namespace the flight recorder's
	// summary metrics: windowed occupancy/stall sampling (timeline.*) and
	// the online phase segmentation computed from it (phase.*). The full
	// time series travels as an fpint-timeline/v1 document (see
	// internal/obs/timeline); the registry carries only its envelope.
	PrefixTimeline = "timeline."
	PrefixPhase    = "phase."

	// Timeline envelope metrics: window count, configured window width in
	// cycles, and whether the windows are fast-mode estimates (1) or
	// detailed measurements (0).
	MetricTimelineWindows     = "windows"
	MetricTimelineWindowWidth = "window_width"
	MetricTimelineEstimated   = "estimated"

	// MetricPhaseCount is the number of phases the segmenter found.
	MetricPhaseCount = "count"

	// MetricRunExit is the simulated program's exit value.
	MetricRunExit = "run.exit"

	// Fast-mode provenance gauges, exported under PrefixUarch by runs that
	// used the sampled-timing fast path: how many detailed windows were
	// measured, how much of the stream they covered, the sampling period
	// the run ended at, the relative 99.7% confidence half-width of the
	// cycle estimate, and whether the run degenerated to the exact
	// detailed model.
	MetricFastWindows              = "fast.windows"
	MetricFastMeasuredInstructions = "fast.measured_instructions"
	MetricFastMeasuredCycles       = "fast.measured_cycles"
	MetricFastSampledFraction      = "fast.sampled_fraction"
	MetricFastFinalPeriod          = "fast.final_period"
	MetricFastRelCI                = "fast.rel_ci"
	MetricFastExact                = "fast.exact"

	// PrefixHost namespaces the simulator's own Go-level cost (see
	// internal/obs/hostmetrics). Host metrics are nondeterministic by
	// nature and are only exported on explicit request (-hostmetrics) so
	// the default metric documents stay byte-stable.
	PrefixHost = "host."

	// Host-side self-metric names: wall time and allocation/GC deltas
	// around the simulated region, as measured by hostmetrics.Measure.
	MetricHostWallNS    = "wall_ns"
	MetricHostAllocs    = "allocs"
	MetricHostBytes     = "bytes"
	MetricHostGCPauseNS = "gc_pause_ns"
	MetricHostGCCycles  = "gc_cycles"
	// MetricHostSimsPerSec is simulated cycles per host second — the
	// simulator-throughput headline the ROADMAP's speed work tracks.
	MetricHostSimsPerSec = "sims_per_sec"

	// PrefixService namespaces the fpintd daemon's own operational
	// counters in /statsz. They are maintained as atomics inside
	// internal/service (Registry itself is not concurrency-safe) and
	// rendered into a fresh registry per /statsz request.
	PrefixService = "service."

	// Admission and execution counters: accepted into a queue, refused
	// with 503 (queue full or draining), completed (any outcome), and
	// worker panics converted to 500s by the per-job recover barrier.
	MetricServiceAccepted        = "jobs_accepted"
	MetricServiceShed            = "jobs_shed"
	MetricServiceCompleted       = "jobs_completed"
	MetricServicePanicsRecovered = "panics_recovered"

	// Per-class outcome counters are emitted as
	// service.outcome.<class> using the fperr class names.
	MetricServiceOutcomePrefix = "outcome."

	// Artifact-cache counters: lookups that hit, missed, or found a
	// tampered entry (refused and recomputed), plus the live entry count.
	MetricServiceCacheHits     = "cache_hits"
	MetricServiceCacheMisses   = "cache_misses"
	MetricServiceCacheTampered = "cache_tampered"
	MetricServiceCacheEntries  = "cache_entries"

	// MetricServiceDraining is 1 once SIGTERM started the drain.
	MetricServiceDraining = "draining"

	// Comparison identifiers shared by the run-record gate
	// (internal/obs/runstore) and the fpistat diff renderer: the exact
	// guest-cycle contract plus the min-over-samples host aggregates the
	// noise-aware comparisons key on.
	MetricGuestCycles   = "guest.cycles"
	MetricHostMinWallNS = PrefixHost + "min_wall_ns"
	MetricHostMinAllocs = PrefixHost + "min_allocs"
	MetricHostMinBytes  = PrefixHost + "min_bytes"
)
