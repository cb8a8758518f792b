#include "spec/specification.hpp"

#include "graph/validate.hpp"
#include "spec/compiled.hpp"
#include "util/strings.hpp"

namespace sdf {

SpecificationGraph::SpecificationGraph()
    : problem_("G_P"), architecture_("G_A") {}

SpecificationGraph::SpecificationGraph(std::string name)
    : name_(std::move(name)), problem_("G_P"), architecture_("G_A") {}

SpecificationGraph::~SpecificationGraph() = default;

SpecificationGraph::SpecificationGraph(const SpecificationGraph& other)
    : name_(other.name_),
      problem_(other.problem_),
      architecture_(other.architecture_),
      mappings_(other.mappings_) {}

SpecificationGraph& SpecificationGraph::operator=(
    const SpecificationGraph& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  problem_ = other.problem_;
  architecture_ = other.architecture_;
  mappings_ = other.mappings_;
  compiled_.reset();
  return *this;
}

SpecificationGraph::SpecificationGraph(SpecificationGraph&& other) noexcept
    : name_(std::move(other.name_)),
      problem_(std::move(other.problem_)),
      architecture_(std::move(other.architecture_)),
      mappings_(std::move(other.mappings_)) {
  // The moved-from spec's index would reference the data now owned here.
  other.compiled_.reset();
}

SpecificationGraph& SpecificationGraph::operator=(
    SpecificationGraph&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  problem_ = std::move(other.problem_);
  architecture_ = std::move(other.architecture_);
  mappings_ = std::move(other.mappings_);
  compiled_.reset();
  other.compiled_.reset();
  return *this;
}

void SpecificationGraph::set_name(std::string name) {
  name_ = std::move(name);
  compiled_.reset();
}

const CompiledSpec& SpecificationGraph::compiled() const {
  const std::lock_guard<std::mutex> lock(compiled_mutex_);
  if (compiled_ == nullptr ||
      compiled_problem_version_ != problem_.version() ||
      compiled_architecture_version_ != architecture_.version() ||
      compiled_mapping_count_ != mappings_.size()) {
    compiled_ = std::make_unique<CompiledSpec>(*this);
    compiled_problem_version_ = problem_.version();
    compiled_architecture_version_ = architecture_.version();
    compiled_mapping_count_ = mappings_.size();
  }
  return *compiled_;
}

void SpecificationGraph::add_mapping(NodeId process, NodeId resource,
                                     double latency) {
  SDF_CHECK(process.valid() && process.index() < problem_.node_count(),
            "bad problem NodeId");
  SDF_CHECK(resource.valid() && resource.index() < architecture_.node_count(),
            "bad architecture NodeId");
  // Interface endpoints are *data* errors (spec files can express them);
  // they are recorded as given and reported by validate()/lint as SDF010
  // instead of aborting the load.
  mappings_.push_back(MappingEdge{process, resource, latency});
}

const std::vector<AllocUnit>& SpecificationGraph::alloc_units() const {
  return compiled().units();
}

AllocUnitId SpecificationGraph::find_unit(std::string_view name) const {
  for (const AllocUnit& u : alloc_units())
    if (u.name == name) return u.id;
  return AllocUnitId{};
}

AllocUnitId SpecificationGraph::unit_of_resource(NodeId resource) const {
  SDF_CHECK(resource.valid() && resource.index() < architecture_.node_count(),
            "bad architecture node id");
  return compiled().unit_of_resource(resource);
}

AllocSet SpecificationGraph::make_alloc_set() const {
  return compiled().make_alloc_set();
}

std::string SpecificationGraph::allocation_names(const AllocSet& alloc) const {
  const std::vector<AllocUnit>& units = alloc_units();
  std::vector<std::string> names;
  alloc.for_each([&](std::size_t i) { names.push_back(units[i].name); });
  return join(names, ", ");
}

Status SpecificationGraph::validate() const {
  if (Status s = validate_or_error(problem_); !s.ok())
    return s.error().wrap("problem graph");
  if (Status s = validate_or_error(architecture_); !s.ok())
    return s.error().wrap("architecture graph");

  // Mapping edges must link problem leaves to architecture leaves.
  for (const MappingEdge& m : mappings_) {
    if (problem_.node(m.process).is_interface())
      return Error{"mapping edge from non-leaf problem node '" +
                   problem_.node(m.process).name + "'"};
    if (architecture_.node(m.resource).is_interface())
      return Error{"mapping edge to non-leaf architecture node '" +
                   architecture_.node(m.resource).name + "'"};
    if (m.latency < 0)
      return Error{"negative latency on mapping edge from '" +
                   problem_.node(m.process).name + "'"};
  }
  return Status::Ok();
}

}  // namespace sdf
