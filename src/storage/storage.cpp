#include "storage/storage.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "sim/engine.hpp"

namespace cirrus::storage {

namespace {

std::string lower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

}  // namespace

Backend backend_from_string(const std::string& s) {
  const std::string v = lower(s);
  if (v == "nfs") return Backend::Nfs;
  if (v == "lustre") return Backend::Lustre;
  if (v == "object" || v == "s3") return Backend::Object;
  throw std::invalid_argument("storage backend: nfs|lustre|object expected, got '" + s + "'");
}

const char* to_string(Backend b) noexcept {
  switch (b) {
    case Backend::Nfs:
      return "nfs";
    case Backend::Lustre:
      return "lustre";
    case Backend::Object:
      return "object";
  }
  return "?";
}

Model model_for(const plat::Platform& p, Backend backend) {
  Model m;
  m.backend = backend;
  switch (backend) {
    case Backend::Nfs:
      // The platform-native shared mount: exactly the legacy FsModel
      // scalars, one server, no striping. (Vayu's native scratch is named
      // "Lustre" but was always modelled as a single contended server —
      // that stays the golden-compatible default.)
      m.name = p.fs.name;
      m.read_Bps = p.fs.read_Bps;
      m.write_Bps = p.fs.write_Bps;
      m.open_latency_ms = p.fs.open_latency_ms;
      m.servers = 1;
      m.stripe_bytes = 0;
      break;
    case Backend::Lustre:
      m.name = "Lustre/" + std::to_string(p.storage.lustre_oss) + "oss";
      m.read_Bps = p.storage.lustre_oss_read_Bps;
      m.write_Bps = p.storage.lustre_oss_write_Bps;
      m.open_latency_ms = p.storage.lustre_mds_open_ms;
      m.servers = std::max(1, p.storage.lustre_oss);
      m.stripe_bytes = p.storage.lustre_stripe_bytes;
      break;
    case Backend::Object:
      m.name = "Object/" + std::to_string(p.storage.object_frontends) + "fe";
      m.read_Bps = p.storage.object_stream_Bps;
      m.write_Bps = p.storage.object_stream_Bps;
      m.open_latency_ms = p.storage.object_request_ms;
      m.servers = std::max(1, p.storage.object_frontends);
      m.stripe_bytes = 0;
      break;
  }
  return m;
}

Service::Service(sim::Engine& engine, Model model) : engine_(engine), model_(std::move(model)) {
  server_free_.assign(static_cast<std::size_t>(std::max(1, model_.servers)), 0);
}

sim::SimTime Service::read(std::size_t bytes, bool open_file) {
  ++stats_.reads;
  stats_.bytes_read += bytes;
  return request(engine_.now(), bytes, model_.read_Bps, open_file);
}

sim::SimTime Service::write(std::size_t bytes, bool open_file) {
  ++stats_.writes;
  stats_.bytes_written += bytes;
  return request(engine_.now(), bytes, model_.write_Bps, open_file);
}

sim::SimTime Service::request(sim::SimTime now, std::size_t bytes, double bw_Bps,
                              bool open_file) {
  if (open_file) ++stats_.opens;
  // Snapshot the accumulators around dispatch so last_op_ is the pure delta
  // this request contributed — observation only, no completion-time change.
  const sim::SimTime q0 = stats_.queued;
  sim::SimTime done = now;
  switch (model_.backend) {
    case Backend::Nfs:
      done = nfs_request(now, bytes, bw_Bps, open_file);
      break;
    case Backend::Lustre:
      done = lustre_request(now, bytes, bw_Bps, open_file);
      break;
    case Backend::Object:
      done = object_request(now, bytes, bw_Bps);
      break;
  }
  last_op_.queued = stats_.queued - q0;
  // Clamp to the request's own latency: Lustre reserves service time on
  // several servers in parallel, so the busy delta can exceed wall time.
  last_op_.queued = std::min(last_op_.queued, done - now);
  last_op_.service = done - now - last_op_.queued;
  return done;
}

sim::SimTime Service::nfs_request(sim::SimTime now, std::size_t bytes, double bw_Bps,
                                  bool open_file) {
  // Bit-identical to the legacy net::FileSystem::request: same operation
  // order, same SimTime rounding. Do not reorder these expressions.
  sim::SimTime service = sim::from_seconds(static_cast<double>(bytes) / bw_Bps);
  if (open_file) service += sim::from_seconds(model_.open_latency_ms * 1e-3);
  const sim::SimTime start = std::max(now, server_free_[0]);
  server_free_[0] = start + service;
  stats_.busy += service;
  stats_.queued += start - now;
  return server_free_[0];
}

sim::SimTime Service::lustre_request(sim::SimTime now, std::size_t bytes, double bw_Bps,
                                     bool open_file) {
  // Opens serialise on the metadata server; data transfer starts once the
  // MDS has answered.
  sim::SimTime t0 = now;
  if (open_file) {
    const sim::SimTime open_cost = sim::from_seconds(model_.open_latency_ms * 1e-3);
    const sim::SimTime mds_start = std::max(now, mds_free_);
    mds_free_ = mds_start + open_cost;
    stats_.busy += open_cost;
    stats_.queued += mds_start - now;
    t0 = mds_free_;
  }
  if (bytes == 0) return t0;

  // Stripe round-robin from a rotating start OSS. Within one request all
  // chunks landing on the same OSS drain back to back, so each involved
  // server services its byte share as one reservation; the request
  // completes when the slowest involved server drains.
  const std::size_t n_servers = server_free_.size();
  const std::size_t stripe = model_.stripe_bytes > 0 ? model_.stripe_bytes : bytes;
  const std::size_t chunks = (bytes + stripe - 1) / stripe;
  const std::size_t involved = std::min(chunks, n_servers);
  sim::SimTime done = t0;
  for (std::size_t i = 0; i < involved; ++i) {
    // Chunks i, i+n, i+2n, ... of the round-robin; the last chunk may be
    // short, everything else is a full stripe.
    const std::size_t count = (chunks - i + n_servers - 1) / n_servers;
    std::size_t share = count * stripe;
    const std::size_t last_chunk = chunks - 1;
    if (last_chunk % n_servers == i) share -= chunks * stripe - bytes;
    const std::size_t s = (stripe_rotor_ + i) % n_servers;
    const sim::SimTime service = sim::from_seconds(static_cast<double>(share) / bw_Bps);
    const sim::SimTime start = std::max(t0, server_free_[s]);
    server_free_[s] = start + service;
    stats_.busy += service;
    stats_.queued += start - t0;
    done = std::max(done, server_free_[s]);
  }
  stripe_rotor_ = (stripe_rotor_ + chunks) % n_servers;
  return done;
}

sim::SimTime Service::object_request(sim::SimTime now, std::size_t bytes, double bw_Bps) {
  // Least-loaded front end, ties to the lowest index (deterministic). Every
  // request pays the first-byte latency — object stores have no open()
  // separate from the request.
  std::size_t best = 0;
  for (std::size_t s = 1; s < server_free_.size(); ++s) {
    if (server_free_[s] < server_free_[best]) best = s;
  }
  const sim::SimTime service = sim::from_seconds(model_.open_latency_ms * 1e-3) +
                               sim::from_seconds(static_cast<double>(bytes) / bw_Bps);
  const sim::SimTime start = std::max(now, server_free_[best]);
  server_free_[best] = start + service;
  stats_.busy += service;
  stats_.queued += start - now;
  return server_free_[best];
}

}  // namespace cirrus::storage
