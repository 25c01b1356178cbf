/**
 * @file
 * Orpheus C ABI.
 *
 * The paper exposes Orpheus to experimental workflows through Python
 * bindings; this header is the stable C surface such bindings wrap
 * (ctypes/cffi need nothing else). It covers the embedding workflow:
 * build or load a model, configure threads/backend, run inference on
 * flat float buffers, and query per-layer profiles.
 *
 * Conventions: functions return ORPHEUS_OK (0) on success or a negative
 * error code; orpheus_last_error() returns a thread-local message for
 * the most recent failure on the calling thread.
 */
#ifndef ORPHEUS_C_H
#define ORPHEUS_C_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/*
 * Error codes are ABI: values never change meaning once published.
 * -1..-4 shipped with the first release; -5 and below mirror the
 * richer StatusCode taxonomy (deadline, admission control, guard).
 */
#define ORPHEUS_OK 0
#define ORPHEUS_ERR_INVALID_ARGUMENT (-1)
#define ORPHEUS_ERR_NOT_FOUND (-2)
#define ORPHEUS_ERR_RUNTIME (-3)
#define ORPHEUS_ERR_BUFFER_TOO_SMALL (-4)
/** The request's deadline expired (queued or mid-kernel). */
#define ORPHEUS_ERR_DEADLINE_EXCEEDED (-5)
/** Rejected by admission control (queue depth or memory budget). */
#define ORPHEUS_ERR_RESOURCE_EXHAUSTED (-6)
/** The output guard confirmed a corrupted result (see
 *  orpheus_engine_set_guard); the output buffer was not written. */
#define ORPHEUS_ERR_DATA_CORRUPTION (-7)
#define ORPHEUS_ERR_UNIMPLEMENTED (-8)
#define ORPHEUS_ERR_OUT_OF_RANGE (-9)
#define ORPHEUS_ERR_FAILED_PRECONDITION (-10)
#define ORPHEUS_ERR_PARSE (-11)
/** A staged model generation failed canary validation and was rolled
 *  back/quarantined (see orpheus_service_reload_zoo); the incumbent
 *  model kept serving. */
#define ORPHEUS_ERR_MODEL_REJECTED (-12)

/*
 * Latency classes for orpheus_service_run. Values mirror
 * orpheus::RequestPriority and are ABI: real-time work dispatches
 * first and is never shed; batch work is deferred and shed first
 * under overload.
 */
#define ORPHEUS_PRIORITY_REALTIME 0
#define ORPHEUS_PRIORITY_INTERACTIVE 1
#define ORPHEUS_PRIORITY_BATCH 2

/** Opaque compiled-model handle. */
typedef struct orpheus_engine orpheus_engine;

/** Library version string, e.g. "orpheus 1.0.0". */
const char *orpheus_version(void);

/** Stable name for an ORPHEUS_OK / ORPHEUS_ERR_* code, e.g.
 *  "DataCorruption"; "Unknown" for unrecognised values. */
const char *orpheus_error_name(int code);

/** Thread-local message for the last error on this thread ("" if none). */
const char *orpheus_last_error(void);

/** Sets the global inference thread count (>= 1). */
int orpheus_set_num_threads(int num_threads);

/**
 * Compiles a model-zoo network ("resnet-18", "mobilenet-v1", ...).
 * @p personality selects a framework personality ("orpheus", "tvm",
 * "pytorch", "darknet", "tflite"); NULL means "orpheus". Returns NULL on
 * error (see orpheus_last_error).
 */
orpheus_engine *orpheus_engine_create_zoo(const char *model_name,
                                          const char *personality);

/** Compiles an ONNX file. NULL on error. */
orpheus_engine *orpheus_engine_create_from_file(const char *onnx_path,
                                                const char *personality);

void orpheus_engine_destroy(orpheus_engine *engine);

/** Number of graph inputs / outputs. */
int orpheus_engine_input_count(const orpheus_engine *engine);
int orpheus_engine_output_count(const orpheus_engine *engine);

/**
 * Shape of input/output @p index. On entry *rank holds the capacity of
 * @p dims; on success it holds the actual rank and dims[0..rank) the
 * extents. Returns ORPHEUS_ERR_BUFFER_TOO_SMALL if capacity is
 * insufficient.
 */
int orpheus_engine_input_shape(const orpheus_engine *engine, int index,
                               int64_t *dims, int *rank);
int orpheus_engine_output_shape(const orpheus_engine *engine, int index,
                                int64_t *dims, int *rank);

/**
 * Runs one inference on a single-input, single-output model. @p input
 * must hold exactly input_len floats (the input element count) and
 * @p output output_len floats.
 */
int orpheus_engine_run(orpheus_engine *engine, const float *input,
                       size_t input_len, float *output, size_t output_len);

/**
 * Enables (or, with @p enabled == 0, disables) guarded execution on
 * subsequent runs: every step's outputs are scanned for NaN/Inf, and
 * every @p shadow_every_n-th invocation of a step is re-run on the
 * reference implementation and compared (0 disables shadowing).
 * Confirmed corruption makes orpheus_engine_run return
 * ORPHEUS_ERR_DATA_CORRUPTION instead of silently wrong data, and
 * repeated trips route the step to the reference kernel until a
 * recovery probe passes.
 */
int orpheus_engine_set_guard(orpheus_engine *engine, int enabled,
                             int shadow_every_n);

/**
 * Number of executable plan steps (layers after simplification).
 */
int orpheus_engine_step_count(const orpheus_engine *engine);

/**
 * Writes a CSV per-layer profile of the runs so far into @p buffer
 * (NUL-terminated, truncated to @p size), one row per plan step:
 * node,op,impl,output_shape,calls,total_ms,mean_ms. Returns the full
 * length (excluding NUL) like snprintf.
 */
int orpheus_engine_profile_csv(const orpheus_engine *engine, char *buffer,
                               size_t size);

/* --- Resilient serving ---------------------------------------------------
 *
 * The service wraps a pool of engine replicas (sharing one set of
 * packed weights) behind admission control, a hang watchdog,
 * health-aware failover with bounded retries, and optional overload
 * brownout. This is the surface long-running embedders should use
 * instead of orpheus_engine_run.
 */

/** Opaque replicated-service handle. */
typedef struct orpheus_service orpheus_service;

/** Service configuration; zero-initialise then override. Zero fields
 *  mean "default": 2 workers, one replica per worker, queue depth 16,
 *  no retries, retry budget 0.2, unlimited deadline, 1000 ms hang
 *  threshold. */
typedef struct orpheus_service_config {
    int workers;
    int replicas;
    int warm_spares;
    int max_queue_depth;
    int max_retries;
    double retry_budget;
    double default_deadline_ms;
    double hang_threshold_ms;
    int enable_guard;
    int enable_brownout;
    /* Latency classes (appended; zero keeps the defaults). */
    /** Real-time lane depth limit (0 = max_queue_depth / 4). */
    int rt_queue_depth;
    /** Per-class default deadlines, indexed by ORPHEUS_PRIORITY_*;
     *  applied when orpheus_service_run passes deadline_ms == 0
     *  (0 falls back to default_deadline_ms). */
    double class_deadline_ms[3];
} orpheus_service_config;

/** Monotonic service counters (a consistent snapshot). New fields are
 *  only ever appended, so the struct stays ABI-compatible for callers
 *  compiled against older headers. */
typedef struct orpheus_service_stats {
    int64_t submitted;
    int64_t completed_ok;
    int64_t deadline_exceeded;
    int64_t data_corruption;
    int64_t failed;
    int64_t watchdog_hangs;
    int64_t demotions;
    int64_t retries;
    int64_t retry_budget_denied;
    int64_t quarantines;
    int64_t readmissions;
    int64_t brownout_shed;
    double latency_p50_ms;
    double latency_p99_ms;
    double latency_p999_ms;
    /* Model lifecycle (appended; see orpheus_service_reload_zoo). */
    uint64_t active_generation;
    int64_t model_rollbacks;
    int64_t model_swaps;
    int64_t canary_routed;
    /* Latency classes (appended), indexed by ORPHEUS_PRIORITY_*. */
    /** Submissions rejected at admission because the deadline could
     *  not cover the estimated queue wait (already expired included);
     *  each also counts in deadline_exceeded. */
    int64_t rejected_infeasible;
    /** Per-class worker-finished requests (histogram sample count). */
    int64_t class_count[3];
    /** Per-class queue+run latency percentiles. */
    double class_p50_ms[3];
    double class_p99_ms[3];
    double class_p999_ms[3];
    /** Per-class requests shed without dispatch (brownout/shutdown). */
    int64_t class_shed[3];
    /** Per-class share of rejected_infeasible. */
    int64_t class_infeasible[3];
    /** Per-class kDeadlineExceeded completions after admission. */
    int64_t class_deadline_miss[3];
} orpheus_service_stats;

/**
 * Builds a replicated service over a model-zoo network. @p config may
 * be NULL for all defaults. Returns NULL on error (see
 * orpheus_last_error).
 */
orpheus_service *
orpheus_service_create_zoo(const char *model_name, const char *personality,
                           const orpheus_service_config *config);

void orpheus_service_destroy(orpheus_service *service);

/**
 * Runs one inference through the pool (single-input, single-output
 * models; same buffer contract as orpheus_engine_run).
 * @p priority is the request's latency class (ORPHEUS_PRIORITY_*):
 * its queue lane, default SLO budget and degradation order.
 * @p deadline_ms > 0 bounds this request (0 uses the class budget,
 * then the service default); a request whose budget cannot cover the
 * estimated queue wait is rejected at submit with
 * ORPHEUS_ERR_DEADLINE_EXCEEDED. @p retries, when non-NULL, receives
 * the failover attempts the request needed. Retryable failures
 * (corruption, kernel faults, watchdog-cancelled hangs) are
 * transparently re-run on a different healthy replica within the
 * deadline and retry budget (real-time requests bypass the budget).
 */
int orpheus_service_run(orpheus_service *service, const float *input,
                        size_t input_len, float *output,
                        size_t output_len, int priority,
                        double deadline_ms, int *retries);

/** Fills @p stats with a snapshot of the service counters. */
int orpheus_service_query_stats(const orpheus_service *service,
                                orpheus_service_stats *stats);

/** Replicas compiled into the pool (active + spares), or an error
 *  code. */
int orpheus_service_replica_count(const orpheus_service *service);

/**
 * Hot-swaps the service's model to another model-zoo network through
 * the canary lifecycle: the new version is compiled off the hot path,
 * swapped onto one drained replica, validated (warm-up probes plus an
 * optional live-traffic slice), and then rolled to every replica — or
 * rolled back, returning ORPHEUS_ERR_MODEL_REJECTED while the
 * incumbent keeps serving. @p canary_fraction in (0, 1] sets the live
 * traffic slice (pass 0 for the default); @p min_canary_samples live
 * requests are observed before the verdict (0 judges on warm-up
 * probes alone). The new model's input/output signature must match
 * the incumbent's.
 */
int orpheus_service_reload_zoo(orpheus_service *service,
                               const char *model_name,
                               const char *personality,
                               double canary_fraction,
                               int64_t min_canary_samples);

/** Same lifecycle, loading the replacement model from an ONNX file. */
int orpheus_service_reload_file(orpheus_service *service,
                                const char *onnx_path,
                                double canary_fraction,
                                int64_t min_canary_samples);

/**
 * Graceful shutdown: stops admission, flushes queued work while
 * @p deadline_ms allows (0 = unlimited), sheds batch-priority work
 * when the deadline is tight, and cancels in-flight requests when it
 * expires. Returns ORPHEUS_OK when everything drained or
 * ORPHEUS_ERR_DEADLINE_EXCEEDED when work had to be cut short. The
 * service rejects all requests afterwards; destroy it next.
 */
int orpheus_service_shutdown(orpheus_service *service, double deadline_ms);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* ORPHEUS_C_H */
