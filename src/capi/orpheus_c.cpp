#include "capi/orpheus_c.h"

#include <cstring>
#include <string>

#include "capi/status_map.hpp"
#include "core/threadpool.hpp"
#include "eval/layer_bench.hpp"
#include "eval/personalities.hpp"
#include "models/model_zoo.hpp"
#include "onnx/importer.hpp"
#include "runtime/engine.hpp"
#include "runtime/service.hpp"

/** Concrete type behind the opaque handle. */
struct orpheus_engine {
    explicit orpheus_engine(orpheus::Graph graph,
                            orpheus::EngineOptions options)
        : impl(std::move(graph), options)
    {
    }

    orpheus::Engine impl;
};

/** Concrete type behind the opaque service handle. */
struct orpheus_service {
    orpheus_service(orpheus::Graph graph,
                    orpheus::EngineOptions engine_options,
                    orpheus::ServiceOptions service_options)
        : impl(std::move(graph), std::move(engine_options),
               std::move(service_options))
    {
    }

    orpheus::InferenceService impl;
};

namespace {

thread_local std::string t_last_error;

void
set_error(const std::string &message)
{
    t_last_error = message;
}

orpheus::EngineOptions
options_for(const char *personality)
{
    const std::string name =
        personality != nullptr ? personality : "orpheus";
    return orpheus::personality_by_name(name).options;
}

const orpheus::ValueInfo *
io_info(const orpheus_engine *engine, int index, bool input)
{
    const auto &list = input ? engine->impl.graph().inputs()
                             : engine->impl.graph().outputs();
    if (index < 0 || static_cast<std::size_t>(index) >= list.size()) {
        set_error("index out of range");
        return nullptr;
    }
    return &list[static_cast<std::size_t>(index)];
}

int
shape_query(const orpheus_engine *engine, int index, bool input,
            int64_t *dims, int *rank)
{
    if (engine == nullptr || dims == nullptr || rank == nullptr) {
        set_error("null argument");
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    }
    const orpheus::ValueInfo *info = io_info(engine, index, input);
    if (info == nullptr)
        return ORPHEUS_ERR_NOT_FOUND;

    // Output shapes may be unset on the graph; fall back to inference.
    orpheus::Shape shape = info->shape;
    if (shape.rank() == 0 && !input)
        shape = engine->impl.value_infos().at(info->name).shape;

    const int actual = static_cast<int>(shape.rank());
    if (*rank < actual) {
        set_error("dims buffer too small");
        *rank = actual;
        return ORPHEUS_ERR_BUFFER_TOO_SMALL;
    }
    for (int d = 0; d < actual; ++d)
        dims[d] = shape.dim(d);
    *rank = actual;
    return ORPHEUS_OK;
}

} // namespace

extern "C" {

const char *
orpheus_version(void)
{
    return "orpheus 1.0.0";
}

const char *
orpheus_error_name(int code)
{
    if (code == ORPHEUS_ERR_BUFFER_TOO_SMALL)
        return "BufferTooSmall";
    if (code != ORPHEUS_OK &&
        orpheus::capi::to_c_code(orpheus::capi::from_c_code(code)) != code)
        return "Unknown";
    return orpheus::to_string(orpheus::capi::from_c_code(code));
}

const char *
orpheus_last_error(void)
{
    return t_last_error.c_str();
}

int
orpheus_set_num_threads(int num_threads)
{
    if (num_threads < 1) {
        set_error("num_threads must be >= 1");
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    }
    orpheus::set_global_num_threads(num_threads);
    return ORPHEUS_OK;
}

orpheus_engine *
orpheus_engine_create_zoo(const char *model_name, const char *personality)
{
    if (model_name == nullptr) {
        set_error("model_name is null");
        return nullptr;
    }
    try {
        return new orpheus_engine(orpheus::models::by_name(model_name),
                                  options_for(personality));
    } catch (const std::exception &error) {
        set_error(error.what());
        return nullptr;
    }
}

orpheus_engine *
orpheus_engine_create_from_file(const char *onnx_path,
                                const char *personality)
{
    if (onnx_path == nullptr) {
        set_error("onnx_path is null");
        return nullptr;
    }
    try {
        orpheus::Graph graph;
        const orpheus::Status status =
            orpheus::import_onnx_file(onnx_path, graph);
        if (!status.is_ok()) {
            set_error(status.to_string());
            return nullptr;
        }
        return new orpheus_engine(std::move(graph),
                                  options_for(personality));
    } catch (const std::exception &error) {
        set_error(error.what());
        return nullptr;
    }
}

void
orpheus_engine_destroy(orpheus_engine *engine)
{
    delete engine;
}

int
orpheus_engine_input_count(const orpheus_engine *engine)
{
    if (engine == nullptr)
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    return static_cast<int>(engine->impl.graph().inputs().size());
}

int
orpheus_engine_output_count(const orpheus_engine *engine)
{
    if (engine == nullptr)
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    return static_cast<int>(engine->impl.graph().outputs().size());
}

int
orpheus_engine_input_shape(const orpheus_engine *engine, int index,
                           int64_t *dims, int *rank)
{
    return shape_query(engine, index, /*input=*/true, dims, rank);
}

int
orpheus_engine_output_shape(const orpheus_engine *engine, int index,
                            int64_t *dims, int *rank)
{
    return shape_query(engine, index, /*input=*/false, dims, rank);
}

int
orpheus_engine_run(orpheus_engine *engine, const float *input,
                   size_t input_len, float *output, size_t output_len)
{
    if (engine == nullptr || input == nullptr || output == nullptr) {
        set_error("null argument");
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    }
    try {
        const orpheus::Graph &graph = engine->impl.graph();
        if (graph.inputs().size() != 1 || graph.outputs().size() != 1) {
            set_error("orpheus_engine_run requires a single-input, "
                      "single-output model");
            return ORPHEUS_ERR_INVALID_ARGUMENT;
        }
        const orpheus::ValueInfo &in_info = graph.inputs().front();
        if (static_cast<size_t>(in_info.shape.numel()) != input_len) {
            set_error("input has " + std::to_string(input_len) +
                      " elements, model expects " +
                      std::to_string(in_info.shape.numel()));
            return ORPHEUS_ERR_INVALID_ARGUMENT;
        }

        orpheus::Tensor in_tensor(in_info.shape, orpheus::DataType::kFloat32);
        std::memcpy(in_tensor.raw_data(), input, input_len * sizeof(float));

        const orpheus::Tensor result = engine->impl.run(in_tensor);
        if (static_cast<size_t>(result.numel()) != output_len) {
            set_error("output buffer has " + std::to_string(output_len) +
                      " elements, model produces " +
                      std::to_string(result.numel()));
            return ORPHEUS_ERR_BUFFER_TOO_SMALL;
        }
        std::memcpy(output, result.raw_data(),
                    output_len * sizeof(float));
        return ORPHEUS_OK;
    } catch (const orpheus::DeadlineExceededError &error) {
        set_error(error.what());
        return ORPHEUS_ERR_DEADLINE_EXCEEDED;
    } catch (const orpheus::DataCorruptionError &error) {
        set_error(error.what());
        return ORPHEUS_ERR_DATA_CORRUPTION;
    } catch (const std::exception &error) {
        set_error(error.what());
        return ORPHEUS_ERR_RUNTIME;
    }
}

int
orpheus_engine_set_guard(orpheus_engine *engine, int enabled,
                         int shadow_every_n)
{
    if (engine == nullptr) {
        set_error("null argument");
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    }
    if (shadow_every_n < 0) {
        set_error("shadow_every_n must be >= 0");
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    }
    orpheus::GuardPolicy policy;
    policy.enabled = enabled != 0;
    policy.shadow_every_n = shadow_every_n;
    engine->impl.set_guard_policy(policy);
    return ORPHEUS_OK;
}

int
orpheus_engine_step_count(const orpheus_engine *engine)
{
    if (engine == nullptr)
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    return static_cast<int>(engine->impl.steps().size());
}

orpheus_service *
orpheus_service_create_zoo(const char *model_name, const char *personality,
                           const orpheus_service_config *config)
{
    if (model_name == nullptr) {
        set_error("model_name is null");
        return nullptr;
    }
    try {
        orpheus::EngineOptions engine_options = options_for(personality);
        orpheus::ServiceOptions service_options;
        service_options.workers = 2;
        if (config != nullptr) {
            if (config->workers > 0)
                service_options.workers = config->workers;
            service_options.replicas = config->replicas;
            service_options.warm_spares = config->warm_spares;
            if (config->max_queue_depth > 0)
                service_options.max_queue_depth =
                    static_cast<std::size_t>(config->max_queue_depth);
            service_options.max_retries = config->max_retries;
            if (config->retry_budget > 0)
                service_options.retry_budget = config->retry_budget;
            service_options.default_deadline_ms =
                config->default_deadline_ms;
            if (config->hang_threshold_ms > 0)
                service_options.hang_threshold_ms =
                    config->hang_threshold_ms;
            engine_options.guard.enabled = config->enable_guard != 0;
            if (config->rt_queue_depth > 0)
                service_options.rt_queue_depth =
                    static_cast<std::size_t>(config->rt_queue_depth);
            for (std::size_t c = 0; c < orpheus::kPriorityClasses; ++c)
                if (config->class_deadline_ms[c] > 0)
                    service_options.class_deadline_ms[c] =
                        config->class_deadline_ms[c];
        }
        return new orpheus_service(orpheus::models::by_name(model_name),
                                   engine_options, service_options);
    } catch (const std::exception &error) {
        set_error(error.what());
        return nullptr;
    }
}

void
orpheus_service_destroy(orpheus_service *service)
{
    delete service;
}

int
orpheus_service_run(orpheus_service *service, const float *input,
                    size_t input_len, float *output, size_t output_len,
                    int priority, double deadline_ms, int *retries)
{
    if (retries != nullptr)
        *retries = 0;
    if (service == nullptr || input == nullptr || output == nullptr) {
        set_error("null argument");
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    }
    if (priority < ORPHEUS_PRIORITY_REALTIME ||
        priority > ORPHEUS_PRIORITY_BATCH) {
        set_error("priority must be one of ORPHEUS_PRIORITY_REALTIME/"
                  "INTERACTIVE/BATCH");
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    }
    try {
        const orpheus::Graph &graph = service->impl.engine().graph();
        if (graph.inputs().size() != 1 || graph.outputs().size() != 1) {
            set_error("orpheus_service_run requires a single-input, "
                      "single-output model");
            return ORPHEUS_ERR_INVALID_ARGUMENT;
        }
        const orpheus::ValueInfo &in_info = graph.inputs().front();
        if (static_cast<size_t>(in_info.shape.numel()) != input_len) {
            set_error("input has " + std::to_string(input_len) +
                      " elements, model expects " +
                      std::to_string(in_info.shape.numel()));
            return ORPHEUS_ERR_INVALID_ARGUMENT;
        }

        orpheus::Tensor in_tensor(in_info.shape,
                                  orpheus::DataType::kFloat32);
        std::memcpy(in_tensor.raw_data(), input,
                    input_len * sizeof(float));

        orpheus::DeadlineToken token =
            deadline_ms > 0 ? orpheus::DeadlineToken::after_ms(deadline_ms)
                            : orpheus::DeadlineToken();
        const orpheus::InferenceResponse response = service->impl.run(
            {{in_info.name, std::move(in_tensor)}}, std::move(token),
            static_cast<orpheus::RequestPriority>(priority));
        if (retries != nullptr)
            *retries = response.retries;
        if (!response.status.is_ok()) {
            set_error(response.status.to_string());
            return orpheus::capi::to_c_code(response.status.code());
        }

        const orpheus::Tensor &result = response.outputs.begin()->second;
        if (static_cast<size_t>(result.numel()) != output_len) {
            set_error("output buffer has " + std::to_string(output_len) +
                      " elements, model produces " +
                      std::to_string(result.numel()));
            return ORPHEUS_ERR_BUFFER_TOO_SMALL;
        }
        std::memcpy(output, result.raw_data(),
                    output_len * sizeof(float));
        return ORPHEUS_OK;
    } catch (const std::exception &error) {
        set_error(error.what());
        return ORPHEUS_ERR_RUNTIME;
    }
}

int
orpheus_service_query_stats(const orpheus_service *service,
                            orpheus_service_stats *stats)
{
    if (service == nullptr || stats == nullptr) {
        set_error("null argument");
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    }
    const orpheus::ServiceStats snapshot = service->impl.stats();
    *stats = orpheus_service_stats{};
    stats->submitted = snapshot.submitted;
    stats->completed_ok = snapshot.completed_ok;
    stats->deadline_exceeded = snapshot.deadline_exceeded;
    stats->data_corruption = snapshot.data_corruption;
    stats->failed = snapshot.failed;
    stats->watchdog_hangs = snapshot.watchdog_hangs;
    stats->demotions = snapshot.demotions;
    stats->retries = snapshot.retries;
    stats->retry_budget_denied = snapshot.retry_budget_denied;
    stats->quarantines = snapshot.quarantines;
    stats->readmissions = snapshot.readmissions;
    stats->latency_p50_ms = snapshot.latency_p50_ms;
    stats->latency_p99_ms = snapshot.latency_p99_ms;
    stats->latency_p999_ms = snapshot.latency_p999_ms;
    stats->active_generation = snapshot.active_generation;
    stats->model_rollbacks = snapshot.model_rollbacks;
    stats->model_swaps = snapshot.model_swaps;
    stats->canary_routed = snapshot.canary_routed;
    stats->rejected_infeasible = snapshot.rejected_infeasible;
    for (std::size_t c = 0; c < orpheus::kPriorityClasses; ++c) {
        stats->class_count[c] = snapshot.class_count[c];
        stats->class_p50_ms[c] = snapshot.class_p50_ms[c];
        stats->class_p99_ms[c] = snapshot.class_p99_ms[c];
        stats->class_p999_ms[c] = snapshot.class_p999_ms[c];
        stats->class_shed[c] = snapshot.class_shed[c];
        stats->class_infeasible[c] = snapshot.class_infeasible[c];
        stats->class_deadline_miss[c] = snapshot.class_deadline_miss[c];
    }
    return ORPHEUS_OK;
}

int
orpheus_service_replica_count(const orpheus_service *service)
{
    if (service == nullptr) {
        set_error("null argument");
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    }
    return static_cast<int>(service->impl.pool().replica_count());
}

namespace {

orpheus::RolloutOptions
rollout_options_for(double canary_fraction, int64_t min_canary_samples)
{
    orpheus::RolloutOptions options;
    if (canary_fraction > 0)
        options.canary_fraction = canary_fraction;
    options.min_canary_samples = min_canary_samples > 0
                                     ? min_canary_samples
                                     : 0;
    return options;
}

int
finish_reload(const orpheus::RolloutReport &report)
{
    if (!report.status.is_ok()) {
        set_error(report.status.to_string());
        return orpheus::capi::to_c_code(report.status.code());
    }
    return ORPHEUS_OK;
}

} // namespace

int
orpheus_service_reload_zoo(orpheus_service *service, const char *model_name,
                           const char *personality, double canary_fraction,
                           int64_t min_canary_samples)
{
    (void)personality; // The pool's compiled personality is kept; a
                       // rollout swaps the model, not the runtime.
    if (service == nullptr || model_name == nullptr) {
        set_error("null argument");
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    }
    try {
        const orpheus::RolloutReport report = service->impl.reload(
            orpheus::models::by_name(model_name),
            rollout_options_for(canary_fraction, min_canary_samples));
        return finish_reload(report);
    } catch (const std::exception &error) {
        set_error(error.what());
        return ORPHEUS_ERR_RUNTIME;
    }
}

int
orpheus_service_reload_file(orpheus_service *service, const char *onnx_path,
                            double canary_fraction,
                            int64_t min_canary_samples)
{
    if (service == nullptr || onnx_path == nullptr) {
        set_error("null argument");
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    }
    try {
        const orpheus::RolloutReport report = service->impl.reload_file(
            onnx_path,
            rollout_options_for(canary_fraction, min_canary_samples));
        return finish_reload(report);
    } catch (const std::exception &error) {
        set_error(error.what());
        return ORPHEUS_ERR_RUNTIME;
    }
}

int
orpheus_service_shutdown(orpheus_service *service, double deadline_ms)
{
    if (service == nullptr) {
        set_error("null argument");
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    }
    try {
        const orpheus::ShutdownReport report =
            service->impl.shutdown(deadline_ms);
        if (!report.status.is_ok()) {
            set_error(report.status.to_string());
            return orpheus::capi::to_c_code(report.status.code());
        }
        return ORPHEUS_OK;
    } catch (const std::exception &error) {
        set_error(error.what());
        return ORPHEUS_ERR_RUNTIME;
    }
}

int
orpheus_engine_profile_csv(const orpheus_engine *engine, char *buffer,
                           size_t size)
{
    if (engine == nullptr || (buffer == nullptr && size > 0)) {
        set_error("null argument");
        return ORPHEUS_ERR_INVALID_ARGUMENT;
    }
    const std::string csv =
        orpheus::layer_timings_to_csv(orpheus::layer_timings(engine->impl));
    if (size > 0) {
        const size_t copied = std::min(size - 1, csv.size());
        std::memcpy(buffer, csv.data(), copied);
        buffer[copied] = '\0';
    }
    return static_cast<int>(csv.size());
}

} // extern "C"
