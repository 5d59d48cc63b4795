/**
 * @file
 * Error handling primitives for Orpheus.
 *
 * Orpheus distinguishes two failure classes, mirroring the fatal/panic
 * split used by systems simulators:
 *
 *  - Programming errors (violated invariants) abort via ORPHEUS_ASSERT.
 *  - User/environment errors (bad model file, unsupported op, shape
 *    mismatch in user input) throw orpheus::Error, or are reported
 *    through orpheus::Status on API boundaries that must not throw.
 */
#pragma once

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace orpheus {

/** Exception type for all recoverable Orpheus errors. */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/**
 * A recoverable error caused by an input exceeding a configured
 * resource limit (ImportLimits, nesting depth, tensor byte caps).
 * Non-throwing boundaries map it to StatusCode::kOutOfRange, whereas a
 * plain Error from a parser maps to kParseError.
 */
class LimitError : public Error
{
  public:
    using Error::Error;
};

/**
 * A kernel implementation failing at run time (injected by the fault
 * injector or raised by a misbehaving backend). The engine's fallback
 * policy catches these and retries the step on the reference kernel.
 */
class KernelFault : public Error
{
  public:
    using Error::Error;
};

/**
 * Raised at a cooperative cancellation point (a parallel_for tile
 * boundary, a plan-step boundary, an injected-delay slice) when the
 * request's deadline has expired or its token was cancelled — e.g. by
 * the watchdog. Non-throwing boundaries map it to kDeadlineExceeded.
 * The engine's kernel-fallback policy deliberately does NOT treat this
 * as a kernel fault: a cancelled step is rethrown, never degraded.
 */
class DeadlineExceededError : public Error
{
  public:
    using Error::Error;
};

/**
 * Raised when the output guard confirms that a kernel produced wrong
 * data (non-finite values or shadow-execution divergence that the
 * reference implementation does not reproduce).
 * Distinct from KernelFault — the kernel completed, but its result
 * cannot be trusted. Non-throwing boundaries map it to
 * kDataCorruption so callers can tell "wrong" from "slow" (deadline)
 * and "failed" (fault).
 */
class DataCorruptionError : public Error
{
  public:
    using Error::Error;
};

/** Machine-inspectable error category carried by Status. */
enum class StatusCode {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kUnimplemented,
    kOutOfRange,
    kFailedPrecondition,
    kInternal,
    kParseError,
    kDeadlineExceeded,
    kResourceExhausted,
    kDataCorruption,
    /** A staged model generation failed validation (compile error,
     *  signature mismatch, or a canary verdict against the incumbent)
     *  and was rolled back / quarantined by the model lifecycle. */
    kModelRejected,
};

/** Human-readable name of a status code (e.g. "InvalidArgument"). */
const char *to_string(StatusCode code);

/**
 * Lightweight success-or-error result used on non-throwing API
 * boundaries (the ONNX importer and the C ABI).
 *
 * A default-constructed Status is OK. Error statuses carry a code and a
 * message. Status is cheap to copy on the OK path (no allocation).
 */
class Status
{
  public:
    /** Constructs an OK status. */
    Status() = default;

    /** Constructs an error status; @p code must not be kOk. */
    Status(StatusCode code, std::string message);

    /** Named constructor for the OK status. */
    static Status ok() { return Status(); }

    bool is_ok() const { return code_ == StatusCode::kOk; }
    explicit operator bool() const { return is_ok(); }

    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** Formats as "OK" or "<CodeName>: <message>". */
    std::string to_string() const;

    /** Throws orpheus::Error if this status is not OK. */
    void throw_if_error() const;

  private:
    StatusCode code_ = StatusCode::kOk;
    std::string message_;
};

/** Convenience factories mirroring StatusCode values. */
Status invalid_argument_error(std::string message);
Status not_found_error(std::string message);
Status unimplemented_error(std::string message);
Status out_of_range_error(std::string message);
Status failed_precondition_error(std::string message);
Status internal_error(std::string message);
Status parse_error(std::string message);
Status deadline_exceeded_error(std::string message);
Status resource_exhausted_error(std::string message);
Status data_corruption_error(std::string message);
Status model_rejected_error(std::string message);

namespace detail {

/** Builds the exception message for ORPHEUS_CHECK and throws. */
[[noreturn]] void throw_check_failure(const char *condition, const char *file,
                                      int line, const std::string &message);

/** Prints an assertion failure and aborts. */
[[noreturn]] void assert_failure(const char *condition, const char *file,
                                 int line, const std::string &message);

} // namespace detail

} // namespace orpheus

/**
 * Checks a user-facing precondition; throws orpheus::Error on failure.
 * The trailing stream expression becomes part of the message:
 *
 *   ORPHEUS_CHECK(a.shape() == b.shape(),
 *                 "shape mismatch: " << a.shape() << " vs " << b.shape());
 */
#define ORPHEUS_CHECK(condition, ...)                                        \
    do {                                                                     \
        if (!(condition)) {                                                  \
            std::ostringstream orpheus_check_stream_;                        \
            orpheus_check_stream_ << __VA_ARGS__;                            \
            ::orpheus::detail::throw_check_failure(                          \
                #condition, __FILE__, __LINE__,                              \
                orpheus_check_stream_.str());                                \
        }                                                                    \
    } while (0)

/**
 * Checks an internal invariant; aborts on failure. Use only for
 * conditions that indicate a bug in Orpheus itself.
 */
#define ORPHEUS_ASSERT(condition, ...)                                       \
    do {                                                                     \
        if (!(condition)) {                                                  \
            std::ostringstream orpheus_assert_stream_;                       \
            orpheus_assert_stream_ << __VA_ARGS__;                           \
            ::orpheus::detail::assert_failure(                               \
                #condition, __FILE__, __LINE__,                              \
                orpheus_assert_stream_.str());                               \
        }                                                                    \
    } while (0)

/** Propagates a non-OK Status from the enclosing function. */
#define ORPHEUS_RETURN_IF_ERROR(expr)                                        \
    do {                                                                     \
        ::orpheus::Status orpheus_status_ = (expr);                          \
        if (!orpheus_status_.is_ok())                                        \
            return orpheus_status_;                                          \
    } while (0)
