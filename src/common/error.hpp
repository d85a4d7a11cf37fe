// Error handling for the GESP library.
//
// All recoverable failures are reported with gesp::Error (an exception
// carrying a category), so callers can distinguish e.g. a structurally
// singular matrix from a malformed input file. GESP_CHECK is for
// precondition violations on the public API; GESP_ASSERT compiles away in
// release builds and guards internal invariants.
#pragma once

#include <cstring>
#include <stdexcept>
#include <string>

namespace gesp {

/// Failure categories surfaced by the library.
enum class Errc {
  invalid_argument,    ///< caller violated a documented precondition
  io,                  ///< file missing or malformed
  structurally_singular,  ///< no zero-free diagonal exists (max transversal < n)
  numerically_singular,   ///< exact zero pivot with replacement disabled
  unstable,            ///< pivot growth too large; solution unreliable
  comm,                ///< transport fault: timeout, lost rank, bad payload
  overloaded,          ///< serving layer shed the request: queue full,
                       ///< deadline expired, or service shutting down
  internal,            ///< broken internal invariant (library bug)
};

/// Human-readable name of an error category.
const char* errc_name(Errc c) noexcept;

/// Exception type thrown by all gesp components.
class Error : public std::runtime_error {
 public:
  Error(Errc code, const std::string& what)
      : std::runtime_error(std::string(errc_name(code)) + ": " + what),
        code_(code) {}

  Errc code() const noexcept { return code_; }
  /// what() without its "<category>: " prefix; Error(code(), message())
  /// rebuilds what(), so a failure crossing a thread or rank carries this.
  const char* message() const noexcept {
    return what() + std::strlen(errc_name(code_)) + 2;
  }

 private:
  Errc code_;
};

[[noreturn]] void throw_error(Errc code, const std::string& what);

}  // namespace gesp

#define GESP_CHECK(cond, code, msg)                  \
  do {                                               \
    if (!(cond)) ::gesp::throw_error((code), (msg)); \
  } while (0)

#ifndef NDEBUG
#define GESP_ASSERT(cond, msg)                                            \
  do {                                                                    \
    if (!(cond))                                                          \
      ::gesp::throw_error(::gesp::Errc::internal,                         \
                          std::string(msg) + " at " __FILE__ ":" +        \
                              std::to_string(__LINE__));                  \
  } while (0)
#else
#define GESP_ASSERT(cond, msg) \
  do {                         \
  } while (0)
#endif
