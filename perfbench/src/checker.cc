#include "checker.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string_view>

#include "serve/context_manager.h"
#include "server.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

/// Parses a ','-separated id list into `ids`; false on junk.
bool ParseIds(std::string_view text, std::vector<long>* ids) {
  ids->clear();
  size_t i = 0;
  while (i < text.size()) {
    size_t j = text.find(',', i);
    if (j == std::string_view::npos) j = text.size();
    if (j == i) return false;
    long v = 0;
    for (size_t p = i; p < j; ++p) {
      if (text[p] < '0' || text[p] > '9') return false;
      v = v * 10 + (text[p] - '0');
    }
    ids->push_back(v);
    i = j + 1;
  }
  return true;
}

bool Fail(std::string* why, std::string reason) {
  *why = std::move(reason);
  return false;
}

uint64_t GenOf(const std::string& response) {
  std::string_view g;
  if (!FieldText(response, "gen", &g)) return 0;
  return std::strtoull(std::string(g).c_str(), nullptr, 10);
}

}  // namespace

bool WellFormed(const std::string& request, const std::string& response,
                int n, std::string* why) {
  const std::string verb = Verb(request);
  const std::string table = TableOf(request);
  const std::string head = "OK " + verb + " " + table;
  if (response.compare(0, head.size(), head) != 0 ||
      (response.size() > head.size() && response[head.size()] != ' ')) {
    return Fail(why, "response does not echo '" + head + "'");
  }
  std::string_view v;
  std::vector<long> ids;
  if (verb == "RUN") {
    if (!FieldText(response, "gen", &v) || !FieldText(response, "sat", &v)) {
      return Fail(why, "RUN without gen=/sat=");
    }
    if (!FieldText(response, "consensus", &v) || !ParseIds(v, &ids) ||
        ids.size() != static_cast<size_t>(n)) {
      return Fail(why, "RUN consensus is not a list of n ids");
    }
    std::vector<char> seen(n, 0);
    for (long id : ids) {
      if (id < 0 || id >= n || seen[id]) {
        return Fail(why, "RUN consensus is not a permutation of 0..n-1");
      }
      seen[id] = 1;
    }
  } else if (verb == "EVAL") {
    for (const char* key : {"gen", "method", "tau", "ntau", "parity",
                            "max_parity", "fpr", "ifpr_max", "ifpr_min"}) {
      if (!FieldText(response, key, &v) || v.empty()) {
        return Fail(why, std::string("EVAL without ") + key + "=");
      }
    }
  } else if (verb == "SELECT") {
    for (const char* key : {"gen", "k", "method", "algo", "optimal", "cost",
                            "air", "four_fifths"}) {
      if (!FieldText(response, key, &v) || v.empty()) {
        return Fail(why, std::string("SELECT without ") + key + "=");
      }
    }
    const long k = std::strtol(request.c_str() + request.find(' ',
                                   request.find(' ') + 1), nullptr, 10);
    if (!FieldText(response, "selected", &v) || !ParseIds(v, &ids) ||
        static_cast<long>(ids.size()) != k) {
      return Fail(why, "SELECT slate is not k ids");
    }
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end() ||
        ids.front() < 0 || ids.back() >= n) {
      return Fail(why, "SELECT slate has repeated or out-of-range ids");
    }
  } else if (verb == "STATS") {
    if (!FieldText(response, "generation", &v)) {
      return Fail(why, "STATS without generation=");
    }
  } else if (verb == "APPEND") {
    const long rankings =
        std::count(request.begin(), request.end(), ';') + 1;
    if (!FieldText(response, "queued", &v) ||
        std::strtol(std::string(v).c_str(), nullptr, 10) != rankings) {
      return Fail(why, "APPEND queued= does not match the payload");
    }
  } else if (verb == "FLUSH") {
    if (!FieldText(response, "applied", &v)) {
      return Fail(why, "FLUSH without applied=");
    }
  }
  return true;
}

ReplayReport ReplayCheck(const Workload& wl, std::vector<Sample> samples) {
  ReplayReport report;
  manirank::serve::ContextManager manager;
  manirank::serve::Dispatcher dispatcher(&manager);
  for (const TableSpec& t : wl.tables) {
    for (const std::string& line : SeedLines(t)) dispatcher.Handle(line);
  }
  // The written table's appends, in send order (one writer connection).
  std::vector<const Request*> appends;
  for (const Request& r : wl.open_loop) {
    if (wl.conns[r.conn].role == Role::kWriter && Verb(r.line) == "APPEND" &&
        TableOf(r.line) == wl.written_table) {
      appends.push_back(&r);
    }
  }
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample& a, const Sample& b) {
                     return GenOf(a.response) < GenOf(b.response);
                   });
  size_t next_append = 0;
  uint64_t written_gen =
      wl.written_table.empty() ? 0 : wl.Table(wl.written_table).seed.size();
  for (const Sample& s : samples) {
    const std::string table = TableOf(s.request);
    const uint64_t gen = GenOf(s.response);
    if (table == wl.written_table && gen > written_gen) {
      bool pending = false;
      while (written_gen < gen && next_append < appends.size()) {
        dispatcher.Handle(appends[next_append]->line);
        written_gen += appends[next_append]->rankings;
        ++next_append;
        pending = true;
      }
      if (pending) dispatcher.Handle("FLUSH " + table);
    }
    const std::string expected = dispatcher.Handle(s.request);
    ++report.checked;
    if (expected != s.response) {
      ++report.mismatched;
      if (report.details.size() < 3) {
        report.details.push_back("request '" + s.request.substr(0, 60) +
                                 "...': got '" + s.response.substr(0, 120) +
                                 "' want '" + expected.substr(0, 120) + "'");
      }
    }
  }
  return report;
}

}  // namespace perfbench
