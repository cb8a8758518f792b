#include "spec/spec_io.hpp"

#include <string_view>
#include <unordered_set>

namespace sdf {
namespace {

// ---- writing ----------------------------------------------------------------

void write_attrs(JsonWriter& w,
                 const std::map<std::string, double, std::less<>>& attrs) {
  w.begin_object();
  for (const auto& [k, v] : attrs) w.key(k).number(v);
  w.end_object();
}

void write_cluster(JsonWriter& w, const HierarchicalGraph& g, ClusterId cid);

void write_node(JsonWriter& w, const HierarchicalGraph& g, NodeId nid) {
  const Node& n = g.node(nid);
  w.begin_object();
  w.key("name").string(n.name);
  w.key("kind").string(n.is_interface() ? "interface" : "vertex");
  if (!n.attrs.empty()) write_attrs(w.key("attrs"), n.attrs);
  if (n.is_interface()) {
    w.key("clusters").begin_array();
    for (ClusterId cid : n.clusters) write_cluster(w, g, cid);
    w.end_array();
    if (!n.ports.empty()) {
      w.key("ports").begin_array();
      for (PortId pid : n.ports) {
        const Port& p = g.port(pid);
        w.begin_object();
        w.key("name").string(p.name);
        w.key("direction").string(p.direction == PortDirection::kIn ? "in"
                                                                    : "out");
        if (!p.mapping.empty()) {
          w.key("mapping").begin_object();
          for (const auto& [cid, target] : p.mapping)
            w.key(g.cluster(cid).name).string(g.node(target).name);
          w.end_object();
        }
        w.end_object();
      }
      w.end_array();
    }
  }
  w.end_object();
}

void write_cluster(JsonWriter& w, const HierarchicalGraph& g, ClusterId cid) {
  const Cluster& c = g.cluster(cid);
  w.begin_object();
  w.key("name").string(c.name);
  if (!c.attrs.empty()) write_attrs(w.key("attrs"), c.attrs);
  w.key("nodes").begin_array();
  for (NodeId nid : c.nodes) write_node(w, g, nid);
  w.end_array();
  if (!c.edges.empty()) {
    w.key("edges").begin_array();
    for (EdgeId eid : c.edges) {
      const Edge& e = g.edge(eid);
      w.begin_object();
      w.key("from").string(g.node(e.from).name);
      w.key("to").string(g.node(e.to).name);
      if (e.src_port.valid())
        w.key("src_port").string(g.port(e.src_port).name);
      if (e.dst_port.valid())
        w.key("dst_port").string(g.port(e.dst_port).name);
      if (!e.attrs.empty()) write_attrs(w.key("attrs"), e.attrs);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

void write_graph(JsonWriter& w, const HierarchicalGraph& g) {
  w.begin_object();
  w.key("name").string(g.name());
  write_cluster(w.key("root"), g, g.root());
  w.end_object();
}

Status check_unique_names(const HierarchicalGraph& g) {
  const DuplicateNames dups = find_duplicate_names(g);
  if (!dups.nodes.empty())
    return Error{"duplicate node name '" + g.node(dups.nodes.front()).name +
                 "' in graph '" + g.name() + "'"};
  if (!dups.clusters.empty())
    return Error{"duplicate cluster name '" +
                 g.cluster(dups.clusters.front()).name + "' in graph '" +
                 g.name() + "'"};
  return Status::Ok();
}

}  // namespace

DuplicateNames find_duplicate_names(const HierarchicalGraph& g) {
  DuplicateNames dups;
  std::unordered_set<std::string_view> node_names, cluster_names;
  for (const Node& n : g.nodes())
    if (!node_names.insert(n.name).second) dups.nodes.push_back(n.id);
  for (const Cluster& c : g.clusters())
    if (!c.is_root() && !cluster_names.insert(c.name).second)
      dups.clusters.push_back(c.id);
  return dups;
}

Status write_spec(const SpecificationGraph& spec, JsonWriter& out) {
  if (Status s = check_unique_names(spec.problem()); !s.ok())
    return s.error().wrap("problem graph");
  if (Status s = check_unique_names(spec.architecture()); !s.ok())
    return s.error().wrap("architecture graph");

  out.begin_object();
  out.key("name").string(spec.name());
  write_graph(out.key("problem"), spec.problem());
  write_graph(out.key("architecture"), spec.architecture());
  out.key("mappings").begin_array();
  for (const MappingEdge& m : spec.mappings()) {
    out.begin_object();
    out.key("process").string(spec.problem().node(m.process).name);
    out.key("resource").string(spec.architecture().node(m.resource).name);
    out.key("latency").number(m.latency);
    out.end_object();
  }
  out.end_array();
  out.end_object();
  return Status::Ok();
}

Result<std::string> spec_to_string(const SpecificationGraph& spec) {
  JsonWriter out(2);
  if (Status s = write_spec(spec, out); !s.ok()) return s.error();
  return out.take();
}

// spec_from_json / spec_from_string / spec_from_stream / spec_from_file
// live in spec_stream.cpp: all four share the streaming schema reader.

}  // namespace sdf
