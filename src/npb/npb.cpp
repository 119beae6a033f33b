#include "npb/npb.hpp"

#include <stdexcept>

namespace cirrus::npb {

Class class_from_char(char c) {
  switch (c) {
    case 'T': case 't': return Class::T;
    case 'S': case 's': return Class::S;
    case 'W': case 'w': return Class::W;
    case 'A': case 'a': return Class::A;
    case 'B': case 'b': return Class::B;
    case 'C': case 'c': return Class::C;
    default: throw std::invalid_argument(std::string("unknown NPB class: ") + c);
  }
}

char to_char(Class c) { return static_cast<char>(c); }

double BenchmarkInfo::ref_seconds(Class cls) const {
  // Relative serial work per class, normalised to class B. These follow the
  // nominal NPB operation-count ratios closely enough for the non-B classes
  // (only class B timing is compared against the paper).
  switch (cls) {
    case Class::T: return ref_class_b / 4000.0;
    case Class::S: return ref_class_b / 300.0;
    case Class::W: return ref_class_b / 70.0;
    case Class::A: return ref_class_b / 4.2;
    case Class::B: return ref_class_b;
    case Class::C: return ref_class_b * 4.0;
  }
  return ref_class_b;
}

namespace {

std::vector<int> pow2_np() { return {1, 2, 4, 8, 16, 32, 64}; }
std::vector<int> square_np() { return {1, 4, 16, 36, 64}; }

std::vector<BenchmarkInfo> make_registry() {
  std::vector<BenchmarkInfo> v;
  // Figure 3 order: BT EP CG FT IS LU MG SP. ref_class_b values are the
  // paper's single-process class B walltimes on DCC.
  v.push_back({"BT", &run_bt, {.mem_intensity = 0.20}, square_np(), 1696.9});
  v.push_back({"EP", &run_ep, {.mem_intensity = 0.00}, pow2_np(), 141.5});
  v.push_back({"CG", &run_cg, {.mem_intensity = 0.55}, pow2_np(), 244.9});
  v.push_back({"FT", &run_ft, {.mem_intensity = 0.35}, pow2_np(), 327.6});
  v.push_back({"IS", &run_is, {.mem_intensity = 0.30}, pow2_np(), 8.6});
  v.push_back({"LU", &run_lu, {.mem_intensity = 0.25}, pow2_np(), 1514.7});
  v.push_back({"MG", &run_mg, {.mem_intensity = 0.40}, pow2_np(), 72.0});
  v.push_back({"SP", &run_sp, {.mem_intensity = 0.25}, square_np(), 1936.1});
  return v;
}

}  // namespace

const std::vector<BenchmarkInfo>& all_benchmarks() {
  static const std::vector<BenchmarkInfo> registry = make_registry();
  return registry;
}

const BenchmarkInfo& benchmark(const std::string& name) {
  for (const auto& b : all_benchmarks()) {
    if (b.name == name) return b;
  }
  throw std::invalid_argument("unknown NPB benchmark: " + name);
}

mpi::JobConfig make_job(const BenchmarkInfo& bench, Class cls, const plat::Platform& platform,
                        int np, bool execute, std::uint64_t seed) {
  mpi::JobConfig cfg;
  cfg.platform = platform;
  cfg.np = np;
  cfg.traits = bench.traits;
  cfg.execute = execute;
  cfg.seed = seed;
  cfg.name = bench.name + "." + std::string(1, to_char(cls)) + "." + std::to_string(np);
  return cfg;
}

mpi::JobResult run_benchmark(const std::string& name, Class cls, const plat::Platform& platform,
                             int np, bool execute, std::uint64_t seed) {
  const auto& info = benchmark(name);
  auto cfg = make_job(info, cls, platform, np, execute, seed);
  return mpi::run_job(cfg, [&info, cls](mpi::RankEnv& env) {
    const BenchResult r = info.fn(env, cls);
    if (env.rank() == 0) {
      env.report("verified", r.verified ? 1.0 : 0.0);
      env.report("verification_value", r.verification_value);
    }
  });
}

}  // namespace cirrus::npb
