#include "io/system_io.hpp"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

namespace fepia::io {

namespace {

/// Inserts name -> index, rejecting redefinitions: silently overwriting
/// an entity would make later references resolve to the wrong object.
void define(std::map<std::string, std::size_t>& table, const std::string& name,
            std::size_t index, const char* what, std::size_t lineNo) {
  if (!table.emplace(name, index).second) {
    throw ParseError(lineNo,
                     std::string("duplicate ") + what + " '" + name + "'");
  }
}

std::size_t lookup(const std::map<std::string, std::size_t>& table,
                   const std::string& name, const char* what,
                   std::size_t lineNo) {
  const auto it = table.find(name);
  if (it == table.end()) {
    throw ParseError(lineNo,
                     std::string("unknown ") + what + " '" + name + "'");
  }
  return it->second;
}

}  // namespace

hiperd::ReferenceSystem parseSystem(std::istream& in) {
  hiperd::ReferenceSystem ref;
  std::map<std::string, std::size_t> sensors, machines, links, apps, messages,
      paths;
  bool haveQos = false;

  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const std::vector<std::string> t = tokenizeLine(line, lineNo);
    if (t.empty()) continue;
    const std::string& kw = t[0];

    try {
      if (kw == "sensor") {
        if (t.size() != 3) throw ParseError(lineNo, "sensor <name> <load>");
        define(sensors, t[1],
               ref.system.addSensor({t[1], parseNumber(t[2], lineNo)}),
               "sensor", lineNo);
      } else if (kw == "machine") {
        if (t.size() != 2) throw ParseError(lineNo, "machine <name>");
        define(machines, t[1], ref.system.addMachine({t[1]}), "machine",
               lineNo);
      } else if (kw == "link") {
        if (t.size() != 3) throw ParseError(lineNo, "link <name> <bandwidth>");
        define(links, t[1],
               ref.system.addLink({t[1], parseNumber(t[2], lineNo)}), "link",
               lineNo);
      } else if (kw == "app") {
        // app <name> <machine> <base> coeff <...>
        if (t.size() < 5 || t[4] != "coeff") {
          throw ParseError(lineNo,
                           "app <name> <machine> <base-seconds> coeff ...");
        }
        hiperd::Application a;
        a.name = t[1];
        a.machine = lookup(machines, t[2], "machine", lineNo);
        a.baseComputeSeconds = parseNumber(t[3], lineNo);
        for (std::size_t i = 5; i < t.size(); ++i) {
          a.loadCoeffSeconds.push_back(parseNumber(t[i], lineNo));
        }
        const std::string appName = t[1];
        define(apps, appName, ref.system.addApplication(std::move(a)), "app",
               lineNo);
      } else if (kw == "message") {
        // message <name> <src> <dst> <link> <base-bytes> coeff <...>
        if (t.size() < 7 || t[6] != "coeff") {
          throw ParseError(
              lineNo,
              "message <name> <src-app> <dst-app> <link> <base-bytes> coeff ...");
        }
        hiperd::Message m;
        m.name = t[1];
        m.srcApp = lookup(apps, t[2], "app", lineNo);
        m.dstApp = lookup(apps, t[3], "app", lineNo);
        m.link = lookup(links, t[4], "link", lineNo);
        m.baseBytes = parseNumber(t[5], lineNo);
        for (std::size_t i = 7; i < t.size(); ++i) {
          m.loadCoeffBytes.push_back(parseNumber(t[i], lineNo));
        }
        const std::string msgName = t[1];
        define(messages, msgName, ref.system.addMessage(std::move(m)),
               "message", lineNo);
      } else if (kw == "path") {
        // path <name> apps <...> messages <...>
        if (t.size() < 4 || t[2] != "apps") {
          throw ParseError(lineNo, "path <name> apps <...> messages <...>");
        }
        hiperd::Path p;
        p.name = t[1];
        std::size_t i = 3;
        while (i < t.size() && t[i] != "messages") {
          p.apps.push_back(lookup(apps, t[i], "app", lineNo));
          ++i;
        }
        if (i < t.size()) {
          ++i;  // skip "messages"
          while (i < t.size()) {
            p.messages.push_back(lookup(messages, t[i], "message", lineNo));
            ++i;
          }
        }
        const std::string pathName = p.name;
        define(paths, pathName, ref.system.addPath(std::move(p)), "path",
               lineNo);
      } else if (kw == "qos") {
        if (t.size() != 3) {
          throw ParseError(lineNo, "qos <min-throughput> <max-latency>");
        }
        if (haveQos) throw ParseError(lineNo, "duplicate 'qos' line");
        ref.qos.minThroughput = parseNumber(t[1], lineNo);
        ref.qos.maxLatencySeconds = parseNumber(t[2], lineNo);
        if (ref.qos.minThroughput <= 0.0 || ref.qos.maxLatencySeconds <= 0.0) {
          throw ParseError(lineNo, "qos values must be positive");
        }
        haveQos = true;
      } else {
        throw ParseError(lineNo, "unknown directive '" + kw + "'");
      }
    } catch (const ParseError&) {
      throw;
    } catch (const std::exception& e) {
      // Surface System::add* validation with the offending line.
      throw ParseError(lineNo, e.what());
    }
  }

  if (!haveQos) throw ParseError(lineNo, "missing 'qos' line");
  if (ref.system.sensorCount() == 0 || ref.system.applicationCount() == 0) {
    throw ParseError(lineNo, "system needs at least one sensor and one app");
  }
  return ref;
}

hiperd::ReferenceSystem parseSystemString(const std::string& text) {
  std::istringstream in(text);
  return parseSystem(in);
}

hiperd::ReferenceSystem loadSystem(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("io::loadSystem: cannot open '" + path + "'");
  }
  return parseSystem(in);
}

void writeSystem(std::ostream& out, const hiperd::ReferenceSystem& ref) {
  const auto q = [](const std::string& s) {
    return s.find(' ') == std::string::npos ? s : '"' + s + '"';
  };
  const hiperd::System& sys = ref.system;
  out << "# fepia HiPer-D system file\n";
  for (std::size_t i = 0; i < sys.sensorCount(); ++i) {
    out << "sensor " << q(sys.sensor(i).name) << ' ' << sys.sensor(i).load
        << '\n';
  }
  for (std::size_t i = 0; i < sys.machineCount(); ++i) {
    out << "machine " << q(sys.machine(i).name) << '\n';
  }
  for (std::size_t i = 0; i < sys.linkCount(); ++i) {
    out << "link " << q(sys.link(i).name) << ' '
        << sys.link(i).bandwidthBytesPerSec << '\n';
  }
  for (std::size_t i = 0; i < sys.applicationCount(); ++i) {
    const auto& a = sys.application(i);
    out << "app " << q(a.name) << ' ' << q(sys.machine(a.machine).name) << ' '
        << a.baseComputeSeconds << " coeff";
    for (double c : a.loadCoeffSeconds) out << ' ' << c;
    out << '\n';
  }
  for (std::size_t i = 0; i < sys.messageCount(); ++i) {
    const auto& m = sys.message(i);
    out << "message " << q(m.name) << ' '
        << q(sys.application(m.srcApp).name) << ' '
        << q(sys.application(m.dstApp).name) << ' ' << q(sys.link(m.link).name)
        << ' ' << m.baseBytes << " coeff";
    for (double c : m.loadCoeffBytes) out << ' ' << c;
    out << '\n';
  }
  for (std::size_t i = 0; i < sys.pathCount(); ++i) {
    const auto& p = sys.path(i);
    out << "path " << q(p.name) << " apps";
    for (std::size_t a : p.apps) out << ' ' << q(sys.application(a).name);
    out << " messages";
    for (std::size_t m : p.messages) out << ' ' << q(sys.message(m).name);
    out << '\n';
  }
  out << "qos " << ref.qos.minThroughput << ' ' << ref.qos.maxLatencySeconds
      << '\n';
}

}  // namespace fepia::io
