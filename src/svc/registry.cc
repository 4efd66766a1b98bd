#include "svc/registry.h"

#include <utility>

#include "common/status.h"

namespace qplex::svc {

Status SolverRegistry::Register(std::unique_ptr<Solver> solver) {
  QPLEX_CHECK(solver != nullptr) << "null solver registration";
  std::string name(solver->name());
  const auto [it, inserted] = solvers_.emplace(std::move(name),
                                               std::move(solver));
  if (!inserted) {
    return Status::InvalidArgument("backend already registered: " + it->first);
  }
  return Status::Ok();
}

const Solver* SolverRegistry::Get(std::string_view name) const {
  const auto it = solvers_.find(name);
  return it == solvers_.end() ? nullptr : it->second.get();
}

Status SolverRegistry::SetFallback(std::string_view name,
                                   std::string_view fallback) {
  if (Get(name) == nullptr) {
    return Status::InvalidArgument("fallback source not registered: " +
                                   std::string(name));
  }
  if (Get(fallback) == nullptr) {
    return Status::InvalidArgument("fallback target not registered: " +
                                   std::string(fallback));
  }
  if (name == fallback) {
    return Status::InvalidArgument("backend cannot fall back to itself: " +
                                   std::string(name));
  }
  fallbacks_.insert_or_assign(std::string(name), std::string(fallback));
  return Status::Ok();
}

const std::string* SolverRegistry::Fallback(std::string_view name) const {
  const auto it = fallbacks_.find(name);
  return it == fallbacks_.end() ? nullptr : &it->second;
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(solvers_.size());
  for (const auto& [name, solver] : solvers_) {
    names.push_back(name);
  }
  return names;
}

SolverRegistry MakeBuiltinRegistry() {
  SolverRegistry registry;
  const Status status = RegisterBuiltinBackends(&registry);
  QPLEX_CHECK(status.ok()) << status.ToString();
  return registry;
}

}  // namespace qplex::svc
