#include "bench/blame.hpp"

#include <stdexcept>

#include "serve/service.hpp"

namespace cirrus::bench {

obs::critpath::Blame run_blame_probe(const core::RunRequest& req, const std::string& label,
                                     valid::RunReport& report) {
  serve::ExecOptions exec;
  exec.enable_trace = true;
  const auto out = serve::execute(req, exec);
  if (!out.result.trace) {
    throw std::runtime_error("blame probe for " + label + " produced no trace");
  }
  const auto blame = obs::critpath::attribute(*out.result.trace);
  valid::add_blame(report, blame, label, req.np);
  return blame;
}

}  // namespace cirrus::bench
