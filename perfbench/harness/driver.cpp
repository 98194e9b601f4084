#include "harness/driver.hpp"

#include <algorithm>

namespace perfbench {

ClientModel::ClientModel(App app, int id, uint64_t seed, bool with_feature)
    : app_(app),
      id_(id),
      rng_(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(id + 1))),
      with_feature_(with_feature) {}

std::string ClientModel::word(size_t lo, size_t hi) {
  static constexpr char kAlnum[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  const size_t n = rng_.range(lo, hi);
  std::string s;
  for (size_t i = 0; i < n; ++i) s += kAlnum[rng_.below(sizeof(kAlnum) - 1)];
  return s;
}

Request ClientModel::next(bool denied) {
  return app_ == App::kKv ? next_kv(denied) : next_web(denied);
}

Request ClientModel::next_kv(bool denied) {
  // Four keys of our own; a miss key nobody ever writes.
  const std::string key =
      "c" + std::to_string(id_) + "k" + std::to_string(rng_.below(4));
  auto it = state_.find(key);
  const bool present = it != state_.end();
  // GET hit, GET miss, SET, DEL, PING, SETRANGE (weights out of 100).
  uint64_t r = rng_.below(with_feature_ ? 100 : 80);
  if (!with_feature_ && r >= 40) r += 20;  // skip the SET band
  if (r < 30) {
    if (!present) {
      return {"GET " + key + "\n", "$-1\n"};
    }
    return {"GET " + key + "\n", "$" + it->second + "\n"};
  }
  if (r < 40) {
    return {"GET c" + std::to_string(id_) + "miss\n", "$-1\n"};
  }
  if (r < 60) {
    const std::string v = word(3, 12);
    if (denied) return {"SET " + key + " " + v + "\n", kKvDenied};
    state_[key] = v;
    return {"SET " + key + " " + v + "\n", "+OK\n"};
  }
  if (r < 70) {
    if (!present) return {"DEL " + key + "\n", ":0\n"};
    state_.erase(it);
    return {"DEL " + key + "\n", ":1\n"};
  }
  if (r < 85) return {"PING\n", "+PONG\n"};
  // SETRANGE writes at `off` into the 64-byte value field: at offset 0 on a
  // fresh slot (whose stale bytes are then overwritten), anywhere up to the
  // current length otherwise, and never past 60 bytes.
  const std::string v = word(1, 8);
  std::string cur = present ? it->second : std::string();
  const size_t off =
      cur.empty() ? 0 : rng_.below(std::min(cur.size(), 60 - v.size()) + 1);
  cur = cur.substr(0, off) + v;
  state_[key] = cur;
  return {"SETRANGE " + key + " " + std::to_string(off) + " " + v + "\n",
          ":" + std::to_string(cur.size()) + "\n"};
}

Request ClientModel::next_web(bool denied) {
  const std::string path =
      "/c" + std::to_string(id_) + "p" + std::to_string(rng_.below(2));
  auto it = state_.find(path);
  const bool present = it != state_.end();
  // GET (own path or /index), HEAD, PUT (weights out of 100).
  const uint64_t r = rng_.below(with_feature_ ? 100 : 70);
  if (r < 20) return {"GET /index\n", "200 welcome\n"};
  if (r < 45) {
    return {"GET " + path + "\n",
            present ? "200 " + it->second + "\n" : std::string("404\n")};
  }
  if (r < 70) return {"HEAD " + path + "\n", present ? "200\n" : "404\n"};
  const std::string content = word(3, 24);
  if (denied) return {"PUT " + path + " " + content + "\n", kWebDenied};
  state_[path] = content;
  return {"PUT " + path + " " + content + "\n", "201 created\n"};
}

Request feature_probe(App app, bool denied, uint64_t n) {
  const std::string v = "v" + std::to_string(n);
  if (app == App::kKv) {
    return {"SET probe " + v + "\n", denied ? kKvDenied : "+OK\n"};
  }
  return {"PUT /probe " + v + "\n", denied ? kWebDenied : "201 created\n"};
}

void Obs::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

bool Fleet::start(Client& c, Obs& obs) {
  if (c.script.empty()) {
    if (!c.model) return false;
    c.req = c.model->next(servers[c.server].denied);
  } else {
    c.req = std::move(c.script.front());
    c.script.pop_front();
  }
  c.id = next_id_++;
  {
    Scope s(spans_, SpanName::kOsSock, c.id);
    c.conn = os_.connect(servers[c.server].port);
  }
  {
    Scope s(spans_, SpanName::kOsSock, c.id);
    c.conn.send(c.req.line);
  }
  c.sent_at = os_.now();
  c.in_flight = true;
  ++obs.attempted;
  obs.bytes_tx += c.req.line.size();
  return true;
}

void Fleet::finish(Client& c, const std::string& line, Obs& obs) {
  {
    Scope s(spans_, SpanName::kOsSock, c.id);
    c.conn.close();
  }
  c.in_flight = false;
  obs.bytes_rx += line.size();
  const uint64_t lat = os_.now() - c.sent_at;
  obs.digest.mix(lat);
  if (line != c.req.expect) {
    std::string want = c.req.expect, got = line, sent = c.req.line;
    for (std::string* s : {&want, &got, &sent}) {
      if (!s->empty() && s->back() == '\n') s->pop_back();
    }
    obs.fail("port " + std::to_string(servers[c.server].port) + ": '" + sent +
             "' answered '" + got + "', expected '" + want + "'");
    return;
  }
  ++obs.completed;
  if (c.sample) obs.latency.push_back(static_cast<double>(lat));
}

void Fleet::poll(bool send, Obs& obs) {
  uint64_t step = kPollTicks;
  if (send) {
    for (auto& c : clients) {
      if (!c.in_flight) start(c, obs);
    }
  } else {
    uint64_t youngest = ~0ull;
    for (const auto& c : clients) {
      if (c.in_flight) youngest = std::min(youngest, os_.now() - c.sent_at);
    }
    if (youngest != ~0ull) {
      step = std::clamp<uint64_t>(youngest / 16, kPollTicks, kMaxPollTicks);
    }
  }
  {
    Scope s(spans_, SpanName::kOsRun);
    os_.run_ticks(step);
  }
  for (auto& c : clients) {
    if (!c.in_flight || c.conn.pending() == 0) continue;
    std::string line;
    {
      Scope s(spans_, SpanName::kOsSock, c.id);
      line = c.conn.recv_line();
    }
    if (!line.empty()) finish(c, line, obs);
  }
}

bool Fleet::idle() const {
  return std::none_of(clients.begin(), clients.end(),
                      [](const Client& c) { return c.in_flight; });
}

bool Fleet::drain(Obs& obs) {
  // Generous: a frozen server answers after its charged rewrite window
  // (hundreds of virtual ms on a 4 MB image).
  const uint64_t deadline = os_.now() + kDrainTicks;
  while (!idle() && os_.now() < deadline) poll(false, obs);
  if (idle()) return true;
  for (auto& c : clients) {
    if (!c.in_flight) continue;
    c.in_flight = false;
    obs.fail("port " + std::to_string(servers[c.server].port) +
             ": no reply to '" + c.req.line.substr(0, c.req.line.size() - 1) +
             "'");
  }
  return false;
}

void Fleet::probe(size_t server, const Request& req, Obs& obs) {
  Client p;
  p.server = server;
  p.script.push_back(req);
  p.sample = false;
  clients.push_back(std::move(p));
  start(clients.back(), obs);
  drain(obs);
  clients.pop_back();
}

}  // namespace perfbench
