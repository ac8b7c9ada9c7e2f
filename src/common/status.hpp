// Error handling for the toolkit: a lightweight Status / Result<T> pair.
//
// The toolkit is exception-free on its hot paths (scheduling, event
// dispatch); fallible operations return Status or Result<T> and callers
// decide how to react. Exceptions are reserved for programming errors
// (precondition violations), reported via ENTK_CHECK.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace entk {

/// Canonical error categories, loosely mirroring std::errc granularity.
enum class Errc {
  kOk = 0,
  kInvalidArgument,    ///< Malformed description, bad parameter value.
  kNotFound,           ///< Unknown kernel, machine, uid, ...
  kAlreadyExists,      ///< Duplicate registration.
  kFailedPrecondition, ///< Operation illegal in the current state.
  kResourceExhausted,  ///< Request exceeds machine/pilot capacity.
  kCancelled,          ///< Explicitly cancelled by the application.
  kTimedOut,           ///< Wall-time or wait deadline exceeded.
  kInternal,           ///< Invariant violation inside the toolkit.
  kExecutionFailed,    ///< A task/unit/job reported failure.
  kIoError,            ///< Filesystem/staging failure.
};

/// Human-readable name of an error category ("kOk" -> "ok", ...).
const char* errc_name(Errc code);

/// A success-or-error value with an optional diagnostic message.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;
  Status(Errc code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return {}; }

  bool is_ok() const { return code_ == Errc::kOk; }
  explicit operator bool() const { return is_ok(); }

  Errc code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "ok" or "<category>: <message>".
  std::string to_string() const;

 private:
  Errc code_ = Errc::kOk;
  std::string message_;
};

inline Status make_error(Errc code, std::string message) {
  return Status(code, std::move(message));
}

/// Either a value of type T or an error Status. Query with ok(), then
/// access with value() / take(); accessing the wrong alternative throws.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : data_(std::move(status)) {  // NOLINT
    if (std::get<Status>(data_).is_ok()) {
      throw std::logic_error("Result constructed from OK status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    require_value();
    return std::get<T>(data_);
  }
  T& value() & {
    require_value();
    return std::get<T>(data_);
  }
  /// Moves the value out of the result.
  T take() {
    require_value();
    return std::move(std::get<T>(data_));
  }

  /// The error; OK if the result holds a value.
  Status status() const {
    if (ok()) return Status::ok();
    return std::get<Status>(data_);
  }

 private:
  void require_value() const {
    if (!ok()) {
      throw std::runtime_error("Result accessed without value: " +
                               std::get<Status>(data_).to_string());
    }
  }

  std::variant<T, Status> data_;
};

namespace detail {
[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const std::string& message);
}  // namespace detail

/// Precondition/invariant check; throws std::logic_error on failure.
/// Unlike assert(), active in all build types: toolkit invariants guard
/// user-facing state machines and must not silently pass in release.
#define ENTK_CHECK(expr, msg)                                           \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::entk::detail::check_failed(#expr, __FILE__, __LINE__, (msg));   \
    }                                                                   \
  } while (false)

/// Propagates an error Status from the current function.
#define ENTK_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::entk::Status entk_status_ = (expr);     \
    if (!entk_status_.is_ok()) return entk_status_; \
  } while (false)

#define ENTK_CONCAT_INNER_(a, b) a##b
#define ENTK_CONCAT_(a, b) ENTK_CONCAT_INNER_(a, b)

/// Declares or assigns `lhs` from a Result-valued `expr`, propagating
/// its error Status from the current function:
///   ENTK_ASSIGN_OR_RETURN(const double x, config.get_double("x"));
#define ENTK_ASSIGN_OR_RETURN(lhs, expr) \
  ENTK_ASSIGN_OR_RETURN_IMPL_(ENTK_CONCAT_(entk_result_, __LINE__), lhs, expr)
#define ENTK_ASSIGN_OR_RETURN_IMPL_(result, lhs, expr) \
  auto result = (expr);                                \
  if (!result.ok()) return result.status();            \
  lhs = result.take()

}  // namespace entk
