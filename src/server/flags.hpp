// Declarative command-line flags. Each subcommand declares its flags
// once, in a static table of rows: the spelling, the value kind and
// range, the setter into the subcommand's options struct, and where the
// flag is accepted (its sweep roles, and whether a fepiad client may
// send it). One parser reads the CLI's argv, a fepiad request's `args`
// and, for `serve`, the config file through those rows, and the usage
// text is rendered from them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace fepia::server {

/// Arguments the caller could not make sense of; carries a short reason
/// but the CLI prints its usage text instead.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A flag given a bad value or none ("bad value for --samples: 'abc'
/// (expected an unsigned integer)", "missing value for --seed"). The CLI
/// prints it as one error line; fepiad answers it, like every
/// UsageError, with bad_request.
class FlagValueError : public UsageError {
 public:
  using UsageError::UsageError;
};

/// The cap on every thread or worker count a flag or config key sets:
/// each one is started as an OS thread.
inline constexpr std::uint64_t kMaxThreads = 1024;

enum class FlagKind : std::uint8_t {
  Switch,    ///< takes no value
  Text,      ///< any string (a structured one is checked by its setter)
  Unsigned,  ///< an unsigned integer in [min, max]
  Finite,    ///< a finite number, > 0 when `positive`
  Choice,    ///< one of the '|'-separated words of `metavar`
};

/// The roles a flag is accepted in, as bits. A subcommand runs in one
/// role: kLocal, unless a flag given selects another (sweep's --serve
/// and --worker); every flag given must be accepted in that role.
enum FlagRole : unsigned { kLocal = 1u, kServe = 2u, kWorker = 4u };

/// A flag's value as its setter receives it.
struct FlagValue {
  std::string_view text;    ///< the token as typed (empty for a switch)
  std::uint64_t count = 0;  ///< Unsigned
  double number = 0.0;      ///< Finite
  std::size_t choice = 0;   ///< Choice: the word's index in `metavar`
};

/// Writes a value into the options struct `opts` points to: a table is
/// only ever parsed into the struct its setters are written for.
using FlagSetter = void (*)(void* opts, const FlagValue& value);

/// One row of a subcommand's table. The modifiers return a changed copy.
struct Flag {
  std::string_view name;     ///< the spelling, "--samples"
  FlagKind kind = FlagKind::Switch;
  std::string_view metavar;  ///< the value's placeholder in the usage text
  FlagSetter set = nullptr;
  unsigned where = kLocal;   ///< the roles it is accepted in
  unsigned selects = 0;      ///< the role that giving it selects
  bool cliOnly = false;      ///< refused in a fepiad client's request
  std::uint64_t min = 0;     ///< Unsigned range
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  bool positive = false;     ///< Finite: the value must be > 0
  bool repeatable = false;   ///< each occurrence adds one more value
  std::string_view key;      ///< `serve` only: the config-file key

  constexpr Flag(std::string_view n, FlagKind k, std::string_view m,
                 FlagSetter s)
      : name(n), kind(k), metavar(m), set(s) {}
  constexpr Flag in(unsigned roles) const { return with(&Flag::where, roles); }
  /// Giving the flag selects `role`, the one role it is accepted in.
  constexpr Flag selecting(unsigned role) const {
    return with(&Flag::selects, role).in(role);
  }
  constexpr Flag onlyFromCli() const { return with(&Flag::cliOnly, true); }
  /// A text flag whose value must be one of the words of `metavar`.
  constexpr Flag asChoice() const {
    return with(&Flag::kind, FlagKind::Choice);
  }
  constexpr Flag atLeast(std::uint64_t v) const { return with(&Flag::min, v); }
  constexpr Flag atMost(std::uint64_t v) const { return with(&Flag::max, v); }
  constexpr Flag positiveOnly() const { return with(&Flag::positive, true); }
  constexpr Flag repeated() const { return with(&Flag::repeatable, true); }
  constexpr Flag keyed(std::string_view k) const { return with(&Flag::key, k); }

 private:
  template <class T>
  constexpr Flag with(T Flag::*field, T value) const {
    Flag f = *this;
    f.*field = value;
    return f;
  }
};

namespace detail {
template <class M>
struct ClassOf;
template <class C, class T>
struct ClassOf<T C::*> {
  using type = C;
};
}  // namespace detail

/// A row storing its value in a member of the options struct, reached
/// through the member pointers `First, Rest...` (`&A::sweep,
/// &SweepOptions::resume`). The kind follows from the member's type:
/// bool a switch, std::string (or its optional) text, double (or its
/// optional) a finite number, an integer (or its optional) an unsigned
/// one.
template <auto First, auto... Rest>
constexpr Flag field(std::string_view name, std::string_view metavar = {}) {
  using Opts = typename detail::ClassOf<decltype(First)>::type;
  using T = std::remove_cvref_t<decltype(
      ((std::declval<Opts&>() .* First) .* ... .* Rest))>;
  constexpr bool kText = std::is_same_v<T, std::string> ||
                         std::is_same_v<T, std::optional<std::string>>;
  constexpr bool kFinite = std::is_same_v<T, double> ||
                           std::is_same_v<T, std::optional<double>>;
  constexpr FlagKind kKind = std::is_same_v<T, bool> ? FlagKind::Switch
                             : kText                 ? FlagKind::Text
                             : kFinite               ? FlagKind::Finite
                                                     : FlagKind::Unsigned;
  return {name, kKind, metavar, [](void* opts, const FlagValue& v) {
            T& to = ((static_cast<Opts*>(opts)->*First) .* ... .* Rest);
            if constexpr (kKind == FlagKind::Switch) {
              to = true;
            } else if constexpr (kText) {
              to = v.text;
            } else if constexpr (kFinite) {
              to = v.number;
            } else if constexpr (std::is_integral_v<T>) {
              to = static_cast<T>(v.count);
            } else {
              to = v.count;
            }
          }};
}

/// Throws FlagValueError "bad value for FLAG: 'VALUE' (expected ...)".
[[noreturn]] void badFlagValue(std::string_view flag, std::string_view value,
                               std::string_view expected);

/// A finite number or an unsigned integer (decimal or 0x-hex); a bad
/// token throws FlagValueError naming `flag`. For the fields of a
/// structured value ("--crash 1:0.5:0").
double argDouble(std::string_view flag, const std::string& token);
std::uint64_t argUint(std::string_view flag, const std::string& token);

/// Parses and range-checks `token` as the value of `flag`; errors name
/// `spelling` (the flag, or a config-file key).
[[nodiscard]] FlagValue readFlagValue(const Flag& flag,
                                      std::string_view spelling,
                                      const std::string& token);

struct ParseMode {
  bool remote = false;       ///< refuse the cliOnly rows
  std::size_t operands = 0;  ///< operands accepted; more are refused
  bool keepUnknown = false;  ///< keep unknown flags and operands alike
};

/// Parses `args` against `table` into `*opts`, the struct the table's
/// setters write. A flag's value is the next token, whatever it looks
/// like. Returns the other tokens in order: the operands (tokens empty
/// or not starting with '-') and, under `keepUnknown`, unknown flags.
/// Unknown flags, surplus operands and flags outside the role the given
/// flags select are otherwise refused with a UsageError.
std::vector<std::string> parseFlags(std::span<const Flag> table,
                                    std::span<const std::string> args,
                                    void* opts, ParseMode mode = {});

/// One subcommand in the usage text.
struct Command {
  std::string_view word;      ///< "validate"; empty for the default mode
  std::string_view operands;  ///< "<spec-file>"
  std::span<const Flag> flags;
};

/// Writes one synopsis line per command and role, then the flags every
/// command also takes (`globals`).
void writeUsage(std::ostream& os, std::string_view argv0,
                std::span<const Command> commands,
                std::span<const Flag> globals);

}  // namespace fepia::server
