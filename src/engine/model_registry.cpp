#include "engine/model_registry.hpp"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <utility>

#include "maddness/framing.hpp"
#include "util/check.hpp"
#include "util/wire.hpp"

namespace ssma::engine {

namespace {

constexpr char kPipeMagic[8] = {'S', 'S', 'M', 'A', 'P', 'I', 'P', '1'};
constexpr char kAmmMagicPrefix[4] = {'S', 'S', 'M', 'A'};

void check_stage_chain(const std::vector<maddness::Amm>& stages) {
  SSMA_CHECK_MSG(!stages.empty(), "a model needs at least one stage");
  for (std::size_t i = 1; i < stages.size(); ++i)
    SSMA_CHECK_MSG(
        static_cast<std::size_t>(stages[i].cfg().total_dims()) ==
            static_cast<std::size_t>(stages[i - 1].lut().nout),
        "pipeline stage " << i << " consumes "
                          << stages[i].cfg().total_dims()
                          << " dims but stage " << i - 1 << " produces "
                          << stages[i - 1].lut().nout);
}

}  // namespace

std::string pipeline_blob(const std::vector<const maddness::Amm*>& stages) {
  SSMA_CHECK_MSG(!stages.empty(), "a pipeline needs at least one stage");
  std::vector<std::string> blobs;
  blobs.reserve(stages.size());
  std::size_t total = 0;
  for (const maddness::Amm* amm : stages) {
    SSMA_CHECK(amm != nullptr);
    blobs.push_back(amm->save_string());
    total += maddness::kFrameHeaderBytes + blobs.back().size();
  }
  wire::Writer w(sizeof(kPipeMagic) + maddness::kFrameHeaderBytes + 8 +
                 total);
  w.bytes(kPipeMagic, sizeof(kPipeMagic));
  const std::size_t frame = w.skip(maddness::kFrameHeaderBytes);
  w.u64(stages.size());
  for (const std::string& blob : blobs) {
    const std::size_t stage = w.skip(maddness::kFrameHeaderBytes);
    w.bytes(blob.data(), blob.size());
    maddness::seal_frame(w, stage);
  }
  maddness::seal_frame(w, frame);
  return w.take();
}

ModelRef ModelHandle::from_blob(std::string name, std::uint64_t version,
                                std::string blob) {
  SSMA_CHECK_MSG(!name.empty(), "model name must be non-empty");
  // Names flow into refs ("name@version"), metrics tables and JSON
  // artifacts verbatim: keep them to a charset none of those need to
  // escape.
  SSMA_CHECK_MSG(name.find_first_not_of(
                     "abcdefghijklmnopqrstuvwxyz"
                     "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-") ==
                     std::string::npos,
                 "model name must be [A-Za-z0-9._-]: " << name);
  SSMA_CHECK(version >= 1);
  auto handle = std::shared_ptr<ModelHandle>(new ModelHandle());
  handle->name_ = std::move(name);
  handle->version_ = version;

  SSMA_CHECK_MSG(blob.size() >= 8, "model blob too short to be framed");
  if (std::equal(kPipeMagic, kPipeMagic + 8, blob.data())) {
    wire::Reader outer(std::string_view(blob).substr(sizeof(kPipeMagic)));
    wire::Reader payload(maddness::read_frame(outer));
    const std::uint64_t nstages = payload.u64();
    SSMA_CHECK_MSG(outer.ok() && payload.ok(),
                   "truncated or CRC-corrupt pipeline blob (model "
                       << handle->name_ << ")");
    SSMA_CHECK_MSG(nstages >= 1 && nstages <= 64,
                   "implausible pipeline stage count " << nstages);
    handle->stages_.reserve(static_cast<std::size_t>(nstages));
    for (std::uint64_t s = 0; s < nstages; ++s) {
      const std::string_view stage = maddness::read_frame(payload);
      SSMA_CHECK_MSG(payload.ok(), "truncated or CRC-corrupt stage "
                                       << s << " of pipeline blob (model "
                                       << handle->name_ << ")");
      handle->stages_.push_back(maddness::Amm::load_string(stage));
    }
  } else {
    SSMA_CHECK_MSG(
        std::equal(kAmmMagicPrefix, kAmmMagicPrefix + 4, blob.data()),
        "not an SSMA model blob (model " << handle->name_ << ")");
    handle->stages_.push_back(maddness::Amm::load_string(blob));
  }
  check_stage_chain(handle->stages_);
  // Compile the execution descriptor once per handle: stages_ is
  // immutable from here on, so the plan's stage pointers stay valid for
  // the handle's lifetime.
  handle->plan_ = ExecutionPlan::compile(handle->stages_);
  handle->blob_ = std::move(blob);
  return handle;
}

ModelRef ModelHandle::from_amm(std::string name, std::uint64_t version,
                               const maddness::Amm& amm) {
  return from_blob(std::move(name), version, amm.save_string());
}

ModelRef ModelHandle::from_stages(
    std::string name, std::uint64_t version,
    const std::vector<const maddness::Amm*>& stages) {
  if (stages.size() == 1)
    return from_amm(std::move(name), version, *stages.front());
  return from_blob(std::move(name), version, pipeline_blob(stages));
}

std::size_t ModelHandle::cols() const {
  return static_cast<std::size_t>(stages_.front().cfg().total_dims());
}

std::size_t ModelHandle::nout() const {
  return static_cast<std::size_t>(stages_.back().lut().nout);
}

std::string ModelHandle::ref() const {
  return name_ + "@" + std::to_string(version_);
}

// ------------------------------------------------------------ registry

std::uint64_t ModelRegistry::register_model(const std::string& name,
                                            const maddness::Amm& amm) {
  return register_model(name, amm.save_string());
}

std::uint64_t ModelRegistry::register_model(const std::string& name,
                                            std::string blob,
                                            bool publish) {
  // Deserialize (and thereby validate) outside the lock so a slow bank
  // decode never blocks admission-path resolves; retry the version
  // claim if a concurrent register of the same name won the race.
  auto next_version = [&]() {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = models_.find(name);
    if (it == models_.end()) return std::uint64_t{1};
    const Entry& entry = it->second;
    std::uint64_t v = entry.latest + 1;
    if (!entry.versions.empty())
      v = std::max(v, entry.versions.rbegin()->first + 1);
    return v;
  };
  std::uint64_t version = next_version();
  ModelRef handle = ModelHandle::from_blob(name, version, std::move(blob));
  for (;;) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = models_[name];
    if (!entry.versions.count(version)) {
      entry.versions[version] = handle;
      if (publish) entry.latest = std::max(entry.latest, version);
      return version;
    }
    version = entry.versions.rbegin()->first + 1;
    handle = ModelHandle::from_blob(name, version, handle->blob());
  }
}

void ModelRegistry::publish(const std::string& name,
                            std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(name);
  SSMA_CHECK_MSG(it != models_.end() &&
                     it->second.versions.count(version),
                 "publish of unregistered " << name << "@" << version);
  // A publish must move "@latest" forward. Re-publishing the current
  // latest (double publish) or a superseded version is a rollout-logic
  // bug — fail loud instead of silently doing nothing.
  SSMA_CHECK_MSG(version > it->second.latest,
                 "publish of " << name << "@" << version
                               << " does not advance latest (currently @"
                               << it->second.latest
                               << "): already published?");
  it->second.latest = version;
}

void ModelRegistry::discard_staged(const std::string& name,
                                   std::uint64_t version) {
  ModelRef doomed;  // destruct outside the lock, as in retire()
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(name);
  SSMA_CHECK_MSG(it != models_.end(), "unknown model " << name);
  Entry& entry = it->second;
  const auto vit = entry.versions.find(version);
  SSMA_CHECK_MSG(vit != entry.versions.end(),
                 "unknown version " << name << "@" << version);
  SSMA_CHECK_MSG(version > entry.latest,
                 "discard_staged of published " << name << "@" << version
                                                << " (latest is @"
                                                << entry.latest
                                                << "): use retire()");
  doomed = std::move(vit->second);
  entry.versions.erase(vit);
  if (entry.versions.empty()) models_.erase(it);
}

std::uint64_t ModelRegistry::register_pipeline(
    const std::string& name,
    const std::vector<const maddness::Amm*>& stages) {
  return register_model(name, pipeline_blob(stages));
}

void ModelRegistry::install(ModelRef handle) {
  SSMA_CHECK(handle != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = models_[handle->name()];
  entry.versions[handle->version()] = handle;
  entry.latest = std::max(entry.latest, handle->version());
}

ModelRef ModelRegistry::resolve(const std::string& ref) const {
  const std::size_t at = ref.find('@');
  if (at == std::string::npos) return resolve(ref, 0);
  const std::string name = ref.substr(0, at);
  const std::string tag = ref.substr(at + 1);
  if (tag == "latest") return resolve(name, 0);
  SSMA_CHECK_MSG(!tag.empty() && tag.find_first_not_of("0123456789") ==
                                     std::string::npos,
                 "malformed model ref: " << ref);
  const std::uint64_t version = std::strtoull(tag.c_str(), nullptr, 10);
  // Versions start at 1; "@0" is a bad ref, not a latest alias (0 is
  // only the internal latest sentinel of resolve(name, version)).
  SSMA_CHECK_MSG(version >= 1, "malformed model ref: " << ref);
  return resolve(name, version);
}

ModelRef ModelRegistry::resolve(const std::string& name,
                                std::uint64_t version) const {
  ModelRef handle = try_resolve(name, version);
  SSMA_CHECK_MSG(handle != nullptr,
                 "unknown model "
                     << name << "@"
                     << (version ? std::to_string(version) : "latest"));
  return handle;
}

ModelRef ModelRegistry::try_resolve(const std::string& name,
                                    std::uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(name);
  if (it == models_.end()) return nullptr;
  const Entry& entry = it->second;
  const std::uint64_t want = version ? version : entry.latest;
  const auto vit = entry.versions.find(want);
  return vit == entry.versions.end() ? nullptr : vit->second;
}

void ModelRegistry::retire(const std::string& name,
                           std::uint64_t version) {
  // The erased ModelRef may be the last owner; let the bank destruct
  // outside the lock.
  ModelRef doomed;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(name);
  SSMA_CHECK_MSG(it != models_.end(), "unknown model " << name);
  Entry& entry = it->second;
  const auto vit = entry.versions.find(version);
  SSMA_CHECK_MSG(vit != entry.versions.end(),
                 "unknown version " << name << "@" << version);
  // Retiring a staged-but-never-published version through this path
  // would silently skip the rollout bookkeeping; direct it explicitly.
  SSMA_CHECK_MSG(version <= entry.latest,
                 "retire of never-published "
                     << name << "@" << version << " (latest is @"
                     << entry.latest << "): use discard_staged()");
  doomed = std::move(vit->second);
  entry.versions.erase(vit);
  if (entry.versions.empty()) {
    models_.erase(it);
  } else if (entry.latest == version) {
    entry.latest = entry.versions.rbegin()->first;
  }
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& kv : models_) out.push_back(kv.first);
  return out;
}

std::vector<std::uint64_t> ModelRegistry::versions(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> out;
  const auto it = models_.find(name);
  if (it == models_.end()) return out;
  for (const auto& kv : it->second.versions) out.push_back(kv.first);
  return out;
}

std::uint64_t ModelRegistry::latest_version(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(name);
  return it == models_.end() ? 0 : it->second.latest;
}

std::size_t ModelRegistry::num_models() const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.size();
}

void ModelRegistry::save(std::ostream& os) const {
  // Snapshot the structure under the lock (handle refcount bumps only),
  // then encode the — immutable — blobs outside it: serializing a large
  // registry must not stall admission-path resolves (checkpoint cadence
  // runs save() from the submit path).
  std::map<std::string, Entry> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = models_;
  }
  // The fields go through a Writer, but each blob is written straight
  // from its handle: copying the whole section into one buffer first
  // made save ~8x slower on a 5.8 MB registry saved into a string
  // stream, as the server does.
  wire::Writer w;
  const auto flush = [&] {
    os.write(w.data(), static_cast<std::streamsize>(w.size()));
    w = wire::Writer();
  };
  w.u64(snapshot.size());
  for (const auto& kv : snapshot) {  // std::map: sorted, deterministic
    w.u64(kv.first.size());
    w.bytes(kv.first.data(), kv.first.size());
    w.u64(kv.second.latest);
    w.u64(kv.second.versions.size());
    for (const auto& vv : kv.second.versions) {
      const std::string& blob = vv.second->blob();
      w.u64(vv.first);
      w.u64(blob.size());
      flush();
      os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    }
  }
  flush();
  SSMA_CHECK_MSG(os.good(), "registry write failure: the sink stream "
                            "entered an error state");
}

void ModelRegistry::load(std::string_view bytes) {
  // Decode and validate every section before installing any of it, so
  // malformed bytes leave the registry exactly as it was.
  struct Section {
    std::string name;
    std::uint64_t latest = 0;
    std::vector<ModelRef> fresh;  ///< versions not installed yet
  };
  std::vector<Section> sections;
  wire::Reader r(bytes);
  const std::uint64_t nmodels = r.u64();
  SSMA_CHECK_MSG(r.ok() && nmodels <= 4096,
                 "implausible registry model count");
  for (std::uint64_t m = 0; m < nmodels; ++m) {
    Section& s = sections.emplace_back();
    s.name = std::string(r.bytes(r.u64()));
    s.latest = r.u64();
    const std::uint64_t nversions = r.u64();
    SSMA_CHECK_MSG(r.ok(), "registry decode underflow");
    SSMA_CHECK_MSG(nversions >= 1 && nversions <= 65536,
                   "implausible version count for model " << s.name);
    for (std::uint64_t v = 0; v < nversions; ++v) {
      const std::uint64_t version = r.u64();
      const std::string_view blob = r.bytes(r.u64());
      SSMA_CHECK_MSG(r.ok(), "registry decode underflow");
      if (!try_resolve(s.name, version))
        s.fresh.push_back(
            ModelHandle::from_blob(s.name, version, std::string(blob)));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Section& s : sections) {
    Entry& entry = models_[s.name];
    for (const ModelRef& handle : s.fresh) {
      entry.versions.emplace(handle->version(), handle);
      entry.latest = std::max(entry.latest, handle->version());
    }
    // Honor the saved latest pointer exactly — including latest == 0, a
    // name whose only versions were staged (registered, checkpointed,
    // but never published before the crash): the staged versions stay
    // explicitly resolvable for journal replay, but "@latest" must not
    // silently commit an uncommitted swap. Installing bumped latest, so
    // undo that unless the saved pointer names a missing version (a
    // foreign/hand-edited blob — keep the install default then).
    if (s.latest == 0 || entry.versions.count(s.latest))
      entry.latest = s.latest;
  }
}

}  // namespace ssma::engine
