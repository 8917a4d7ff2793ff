// store_query: issues store-protocol requests either directly against a
// local .ocac file (mmap, no server) or against a running oca_serve —
// with BYTE-IDENTICAL output in both modes, because the local mode runs
// the same ExecuteStoreRequest the server does. The CI store-serve job
// leans on that: it diffs a full local dump against the same dump
// through the socket to prove the server answers exactly what a fresh
// snapshot read answers.
//
//   $ ./build/examples/store_query --store=communities.ocac --dump
//   $ ./build/examples/store_query --host=127.0.0.1 --port=4321 --dump
//   $ ./build/examples/store_query --store=communities.ocac --req="SIBLINGS 17 1"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "oca/oca.h"

#include "util/flags.h"

namespace {

int Fail(const oca::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

using RunRequest =
    std::function<oca::Result<std::string>(const std::string&)>;

void PrintResponse(const std::string& line,
                   const oca::Result<std::string>& response) {
  if (response.ok()) {
    std::printf("%s => OK %s\n", line.c_str(), response.value().c_str());
  } else {
    std::printf("%s => %s\n", line.c_str(),
                response.status().ToString().c_str());
  }
}

/// Pulls `key`=<uint> out of a STATS payload.
std::optional<uint64_t> StatsField(const std::string& payload,
                                   const std::string& key) {
  const std::string needle = key + "=";
  size_t at = payload.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::strtoull(payload.c_str() + at + needle.size(), nullptr, 10);
}

int Dump(const RunRequest& run) {
  auto stats = run("STATS");
  PrintResponse("STATS", stats);
  if (!stats.ok()) return 1;
  auto nodes = StatsField(stats.value(), "nodes");
  auto levels = StatsField(stats.value(), "levels");
  if (!nodes || !levels) {
    std::fprintf(stderr, "malformed STATS payload\n");
    return 1;
  }
  for (uint64_t v = 0; v < *nodes; ++v) {
    const std::string id = std::to_string(v);
    for (const std::string& line :
         {"COMMUNITIES " + id, "PATHS " + id}) {
      PrintResponse(line, run(line));
    }
    for (uint64_t k = 0; k < *levels; ++k) {
      const std::string line = "SIBLINGS " + id + " " + std::to_string(k);
      PrintResponse(line, run(line));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  oca::FlagParser flags;
  if (auto s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  std::string store_path = flags.GetString("store", "");
  std::string host = flags.GetString("host", "");
  std::string req = flags.GetString("req", "");
  bool dump = flags.GetBool("dump", false);
  if ((store_path.empty() == host.empty()) || (req.empty() && !dump)) {
    std::fprintf(stderr,
                 "usage: store_query (--store=<file.ocac> | --host=<ip> "
                 "--port=<n>) (--dump | --req=\"<request line>\")\n");
    return 2;
  }

  // Both closures route through the protocol layer, so formatting —
  // including ERR encoding — cannot diverge between modes.
  std::optional<oca::CommunityStore> local;
  std::optional<oca::StoreClient> remote;
  RunRequest run;
  if (!store_path.empty()) {
    auto store = oca::CommunityStore::Open(store_path);
    if (!store.ok()) return Fail(store.status());
    local.emplace(std::move(store).value());
    run = [&local, response = std::string(),
           scratch = std::vector<uint32_t>()](
              const std::string& line) mutable -> oca::Result<std::string> {
      response.clear();
      auto request = oca::ParseStoreRequest(line);
      if (!request.ok()) {
        oca::AppendErrorResponse(request.status(), &response);
      } else {
        oca::ExecuteStoreRequest(*local, request.value(), &response,
                                 &scratch);
      }
      // ExecuteStoreRequest emits a wire line; strip the terminator the
      // way the client's line reader does before parsing.
      std::string_view line_view = response;
      if (!line_view.empty() && line_view.back() == '\n') {
        line_view.remove_suffix(1);
      }
      return oca::ParseStoreResponse(line_view);
    };
  } else {
    auto port = flags.GetInt("port", 0);
    if (!port.ok() || port.value() <= 0 || port.value() > 65535) {
      std::fprintf(stderr, "remote mode needs --port=<1..65535>\n");
      return 2;
    }
    auto client = oca::StoreClient::Connect(
        host, static_cast<uint16_t>(port.value()));
    if (!client.ok()) return Fail(client.status());
    remote.emplace(std::move(client).value());
    run = [&remote](const std::string& line) {
      return remote->Raw(line);
    };
  }

  if (dump) return Dump(run);
  PrintResponse(req, run(req));
  return 0;
}
