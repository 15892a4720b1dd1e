#include "server/flags.hpp"

#include <ostream>

#include "io/parse.hpp"

namespace fepia::server {
namespace {

/// The usage form of one flag: "--samples N", "--csv".
std::string synopsis(const Flag& flag) {
  std::string s(flag.name);
  if (flag.kind != FlagKind::Switch) (s += ' ') += flag.metavar;
  return s;
}

/// An optional flag in a synopsis line: " [--check V1,V2,...]...".
std::string optional(const Flag& flag) {
  return " [" + synopsis(flag) + (flag.repeatable ? "]..." : "]");
}

/// The role bits of a subcommand: kLocal plus every role a flag selects.
unsigned rolesOf(std::span<const Flag> table) {
  unsigned roles = kLocal;
  for (const Flag& f : table) roles |= f.selects;
  return roles;
}

/// Refuses a flag given outside the role that the flags given select.
void checkRoles(std::span<const Flag> table, const std::vector<bool>& seen) {
  const Flag* selector = nullptr;
  for (std::size_t r = 0; r < table.size(); ++r) {
    if (!seen[r] || table[r].selects == 0) continue;
    if (selector != nullptr && selector->selects != table[r].selects) {
      throw UsageError(std::string(selector->name) + " and " +
                       std::string(table[r].name) + " are mutually exclusive");
    }
    selector = &table[r];
  }
  const unsigned role = selector != nullptr ? selector->selects : kLocal;
  const std::string context = selector != nullptr
                                  ? "with " + std::string(selector->name)
                                  : "in a plain run";
  for (std::size_t r = 0; r < table.size(); ++r) {
    if (!seen[r] || (table[r].where & role) != 0) continue;
    throw UsageError(std::string(table[r].name) + " is not accepted " +
                     context);
  }
}

}  // namespace

void badFlagValue(std::string_view flag, std::string_view value,
                  std::string_view expected) {
  throw FlagValueError("bad value for " + std::string(flag) + ": '" +
                       std::string(value) + "' (expected " +
                       std::string(expected) + ")");
}

double argDouble(std::string_view flag, const std::string& token) {
  const std::optional<double> v = io::parseFiniteDouble(token);
  if (!v.has_value()) badFlagValue(flag, token, "a finite number");
  return *v;
}

std::uint64_t argUint(std::string_view flag, const std::string& token) {
  const std::optional<std::uint64_t> v = io::parseUint64(token);
  if (!v.has_value()) badFlagValue(flag, token, "an unsigned integer");
  return *v;
}

FlagValue readFlagValue(const Flag& flag, std::string_view spelling,
                        const std::string& token) {
  FlagValue v;
  v.text = token;
  if (flag.kind == FlagKind::Unsigned) {
    v.count = argUint(spelling, token);
    if (v.count < flag.min || v.count > flag.max) {
      badFlagValue(spelling, token,
                   flag.max != std::numeric_limits<std::uint64_t>::max()
                       ? std::to_string(flag.min) + ".." +
                             std::to_string(flag.max)
                   : flag.min == 1 ? "a positive integer"
                                   : "at least " + std::to_string(flag.min));
    }
  } else if (flag.kind == FlagKind::Finite) {
    v.number = argDouble(spelling, token);
    if (flag.positive && !(v.number > 0.0)) {
      badFlagValue(spelling, token, "a positive number");
    }
  } else if (flag.kind == FlagKind::Choice) {
    std::string_view words = flag.metavar;
    for (;; ++v.choice) {
      const std::size_t bar = words.find('|');
      if (words.substr(0, bar) == token) break;
      if (bar == std::string_view::npos) {
        badFlagValue(spelling, token, flag.metavar);
      }
      words.remove_prefix(bar + 1);
    }
  }
  return v;
}

std::vector<std::string> parseFlags(std::span<const Flag> table,
                                    std::span<const std::string> args,
                                    void* opts, ParseMode mode) {
  std::vector<std::string> kept;
  std::vector<bool> seen(table.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& token = args[i];
    std::size_t r = 0;
    while (r < table.size() && table[r].name != token) ++r;
    if (r == table.size()) {
      const bool flag = !token.empty() && token[0] == '-';
      if (!mode.keepUnknown && (flag || kept.size() == mode.operands)) {
        throw UsageError("unrecognized argument '" + token + "'");
      }
      kept.push_back(token);
      continue;
    }
    const Flag& f = table[r];
    if (mode.remote && f.cliOnly) {
      throw UsageError(token + " is not accepted by fepiad");
    }
    if (f.kind != FlagKind::Switch && i + 1 == args.size()) {
      throw FlagValueError("missing value for " + token);
    }
    f.set(opts, f.kind == FlagKind::Switch
                    ? FlagValue{}
                    : readFlagValue(f, token, args[++i]));
    seen[r] = true;
  }
  checkRoles(table, seen);
  return kept;
}

void writeUsage(std::ostream& os, std::string_view argv0,
                std::span<const Command> commands,
                std::span<const Flag> globals) {
  const char* lead = "usage: ";
  for (const Command& c : commands) {
    const unsigned roles = rolesOf(c.flags);
    for (unsigned role = kLocal; role <= roles; role <<= 1) {
      if ((roles & role) == 0) continue;
      os << lead << argv0;
      lead = "       ";
      for (const std::string_view part : {c.word, c.operands}) {
        if (!part.empty()) os << ' ' << part;
      }
      for (const Flag& f : c.flags) {
        if (f.selects == role) os << ' ' << synopsis(f);
      }
      for (const Flag& f : c.flags) {
        if ((f.where & role) != 0 && f.selects != role) os << optional(f);
      }
      os << '\n';
    }
  }
  os << "Every subcommand also accepts";
  for (const Flag& f : globals) os << optional(f);
  os << ".\n";
}

}  // namespace fepia::server
