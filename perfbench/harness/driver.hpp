// Closed-loop clients for the benchmark's servers, and the poll loop that
// drives an osim machine and checks every reply.
//
// minikv, miniweb and minihttpd serve one connection at a time, so every
// request rides its own host connection (connect, send one line, read one
// reply line, close) — the HTTP/1.0 pattern. A client sends its next request
// only after the previous reply arrived (closed loop).
//
// Each client owns a private set of keys (minikv) or paths (web servers), so
// its model knows the exact reply to every request whatever other clients
// do. A reply that differs from the model's is a failed operation.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/spans.hpp"
#include "harness/stats.hpp"
#include "os/os.hpp"

namespace perfbench {

enum class App { kKv, kWeb };

/// Poll interval of every closed loop, in virtual ticks. The latency guard
/// checks it stays at most a tenth of the measured p50.
inline constexpr uint64_t kPollTicks = 250;

struct Request {
  std::string line;    ///< '\n'-terminated request
  std::string expect;  ///< the exact reply line the server must send
};

/// minikv's reply to a disabled or unknown command (its `dispatch_err`).
inline constexpr const char* kKvDenied = "-ERR unknown or disabled command\n";
/// The web servers' reply to a disabled method (`dav_403` / `http_403`).
inline constexpr const char* kWebDenied = "403 Forbidden\n";

/// One client's exact model of its own keys or paths.
class ClientModel {
 public:
  /// `with_feature` adds the removable feature (SET on minikv, PUT on the
  /// web servers) to the mix; without it the client sends only requests
  /// that no cut in this benchmark touches.
  ClientModel(App app, int id, uint64_t seed, bool with_feature);

  /// The next request. `denied`: the server has the feature disabled and
  /// must answer it with the app's own error reply.
  Request next(bool denied);

 private:
  Request next_kv(bool denied);
  Request next_web(bool denied);
  std::string word(size_t lo, size_t hi);

  App app_;
  int id_;
  dynacut::Rng rng_;
  bool with_feature_;
  std::map<std::string, std::string> state_;  ///< key/path -> value/content
};

/// The feature probe: SET (minikv) or PUT (web), expecting the denial reply
/// when `denied`, else the served reply.
Request feature_probe(App app, bool denied, uint64_t n);

/// What a phase observed. Cumulative since its window opened; the runner
/// snapshots it at fixed points.
struct Obs {
  uint64_t units = 0;
  uint64_t attempted = 0;  ///< requests sent + customizations + spawns
  uint64_t failed = 0;
  uint64_t completed = 0;  ///< requests answered correctly
  std::vector<double> latency;  ///< closed-loop request latency, vticks
  std::vector<double> freeze_ns;  ///< charged freeze per walk step (ns)
  std::vector<double> apply_ms;   ///< host ms per walk step (both calls)
  std::vector<double> spawn_us;   ///< host µs per spawn_from_image
  std::vector<double> resident_kb;  ///< per worker, one per batch
  uint64_t retired = 0;  ///< guest instructions in the window
  uint64_t vticks = 0;   ///< virtual time in the window
  double host_s = 0;     ///< host time in the window
  uint64_t bytes_tx = 0, bytes_rx = 0;
  Digest digest;  ///< every virtual-clock observation, in order
  std::vector<std::string> errors;  ///< the first few failures

  void fail(const std::string& why);
};

struct Server {
  App app;
  uint16_t port;
  int pid;
  bool denied = false;  ///< the feature is currently disabled
};

/// Drives one machine: closed-loop clients, one-shot probes and scripts.
class Fleet {
 public:
  /// Longest poll interval while draining, and the virtual time a drain
  /// waits for replies before counting them missing.
  static constexpr uint64_t kMaxPollTicks = 2'000'000;
  static constexpr uint64_t kDrainTicks = 5'000'000'000;

  explicit Fleet(dynacut::os::Os& os) : os_(os) {}

  struct Client {
    size_t server = 0;
    std::optional<ClientModel> model;  ///< closed loop; else `script`
    std::deque<Request> script;
    bool sample = true;  ///< record latency (probes are not sampled)
    dynacut::os::HostConn conn;
    Request req;
    uint64_t sent_at = 0;
    uint64_t id = 0;  ///< request id, the span group
    bool in_flight = false;
  };

  std::vector<Server> servers;
  std::vector<Client> clients;

  void set_spans(Spans* s) { spans_ = s; }

  /// One poll: if `send`, every idle client with work sends; the machine
  /// runs one poll interval; replies are read and checked. Without `send`
  /// the interval grows with the age of the youngest request in flight (a
  /// sixteenth of it), so long waits cost few polls while every latency
  /// keeps its resolution.
  void poll(bool send, Obs& obs);
  /// Polls without new sends until nothing is in flight. Returns false if
  /// the machine stops making progress first (counted as failures).
  bool drain(Obs& obs);
  /// Sends `req` to `server` on its own connection, drains, and checks the
  /// reply. Other clients finish what they have in flight but send nothing.
  void probe(size_t server, const Request& req, Obs& obs);
  bool idle() const;

 private:
  bool start(Client& c, Obs& obs);
  void finish(Client& c, const std::string& line, Obs& obs);

  dynacut::os::Os& os_;
  Spans* spans_ = nullptr;
  uint64_t next_id_ = 1;
};

}  // namespace perfbench
