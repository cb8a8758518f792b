// Streaming specification reader.
//
// `SpecStreamBuilder` is a `JsonEventHandler` that recognizes the spec
// schema (spec_io.hpp) directly from the parse-event stream and mutates a
// `SpecificationGraph` as elements complete — no DOM is ever built.  It is
// the single schema reader: `spec_from_stream` drives it from a chunked
// `ByteReader`, `spec_from_string` feeds one chunk, and `spec_from_json`
// replays an existing DOM through it, so every entry point accepts exactly
// the same documents and produces identical graphs.
//
// Cross-references are resolved at the tightest scope that can satisfy
// them, preserving the resolution the DOM reader performed:
//  * edges resolve against their cluster's local node table when the
//    cluster closes (all sibling nodes exist by then),
//  * port mappings resolve when their graph closes (targets may live in
//    clusters declared after the port),
//  * mapping edges resolve when the document completes.
// The last two look names up in hash tables built in one pass over the
// finished graph and dropped once the references resolve, so a load costs
// time linear in its input.  A table keeps the first entity of each name,
// so it answers exactly what `HierarchicalGraph::find_node` /
// `find_cluster` would (the first match in id order, interfaces and the
// root cluster included).
//
// Duplicate keys follow the DOM reader's first-occurrence-wins rule, and
// mistyped optional fields fall back exactly as `string_or`/`number_or`
// did (e.g. a numeric "kind" means "vertex", not an error).
#include <fstream>
#include <iostream>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spec/spec_io.hpp"
#include "util/strings.hpp"

namespace sdf {
namespace {

/// Parse-stack context: one entry per open container the schema reader
/// cares about, plus `kSkip` for subtrees it ignores.
enum class Ctx : std::uint8_t {
  kPreDoc,        // before the top-level '{'
  kDoc,           // top-level specification object
  kGraph,         // "problem" / "architecture" object
  kCluster,       // cluster object (root or refinement)
  kClusterNodes,  // a cluster's "nodes" array
  kClusterEdges,  // a cluster's "edges" array
  kNode,          // node object
  kNodeClusters,  // an interface's "clusters" array
  kNodePorts,     // an interface's "ports" array
  kPort,          // port object
  kPortMapping,   // a port's "mapping" object
  kEdge,          // edge object
  kAttrs,         // an "attrs" object (owner is the parent frame)
  kMappings,      // top-level "mappings" array
  kMapping,       // mapping-edge object
  kSkip,          // unknown / ignored subtree
};

/// An edge awaiting resolution at cluster close.
struct PendingEdge {
  std::string from, to, src_port, dst_port;
  bool seen_from = false, seen_to = false;
  bool seen_src = false, seen_dst = false, seen_attrs = false;
  std::vector<std::pair<std::string, double>> attrs;
};

/// A port-mapping entry awaiting resolution at graph close.
struct PendingPortMapping {
  PortId port;
  std::string cluster_name;
  std::string node_name;
};

/// Name -> first id over `items` (nodes or clusters), in id order.  Keys
/// view the graph's own names: the graph's nodes and clusters must not
/// change while the table is in use.
template <typename Id>
using NameTable = std::unordered_map<std::string_view, Id>;

template <typename Id, typename Items>
NameTable<Id> first_by_name(const Items& items) {
  NameTable<Id> table;
  table.reserve(items.size());
  for (const auto& item : items) table.try_emplace(item.name, item.id);
  return table;
}

template <typename Id>
Id lookup(const NameTable<Id>& table, std::string_view name) {
  const auto it = table.find(name);
  return it == table.end() ? Id{} : it->second;
}

/// A mapping edge awaiting resolution at document close.
struct PendingMapping {
  std::string process, resource;
  double latency = 0.0;
  bool seen_process = false, seen_resource = false, seen_latency = false;
};

/// One open container: its context, key, flags and ids.  One is pushed
/// and popped per JSON container, so every payload lives on the builder's
/// own stacks instead (see `SpecStreamBuilder`'s members).
struct Frame {
  explicit Frame(Ctx context) : ctx(context) {}

  Ctx ctx;
  /// Key of the object member whose value is being read (object frames).
  std::string key;
  /// First-occurrence-wins bookkeeping for the keys this frame consumes.
  bool seen_name = false, seen_kind = false, seen_attrs = false;
  bool seen_nodes = false, seen_edges = false, seen_clusters = false;
  bool seen_ports = false, seen_root = false, seen_direction = false;
  bool seen_mapping = false;

  bool materialized = false;  // kNode / kCluster: the entity exists
  NodeId node;                // kNode: the created node
  ClusterId cluster;          // kCluster: the created / root cluster
  /// kCluster: where its deferred edges start on `pending_edges_`.
  std::size_t edges_begin = 0;
  int skip_depth = 0;  // kSkip
};

class SpecStreamBuilder final : public JsonEventHandler {
 public:
  SpecStreamBuilder() { frames_.push_back(Frame(Ctx::kPreDoc)); }

  Status on_null() override { return scalar(ScalarKind::kOther, 0.0, {}); }
  Status on_bool(bool) override { return scalar(ScalarKind::kOther, 0.0, {}); }
  Status on_number(double value) override {
    return scalar(ScalarKind::kNumber, value, {});
  }
  Status on_string(std::string&& value) override {
    return scalar(ScalarKind::kString, 0.0, std::move(value));
  }

  Status on_key(std::string&& key) override {
    top().key = std::move(key);
    return Status::Ok();
  }

  Status on_begin_object() override { return begin_container(true); }
  Status on_begin_array() override { return begin_container(false); }
  Status on_end_object() override { return end_container(); }
  Status on_end_array() override { return end_container(); }

  /// Document-level resolution; call after the parser reports success.
  Status finalize(const SpecParseOptions& options) {
    if (!seen_doc_) return Error{"specification must be a JSON object"};
    if (!seen_problem_) return Error{"missing 'problem' graph"};
    if (!seen_architecture_) return Error{"missing 'architecture' graph"};
    const auto processes = first_by_name<NodeId>(spec_.problem().nodes());
    const auto resources = first_by_name<NodeId>(spec_.architecture().nodes());
    for (const PendingMapping& m : mappings_) {
      const NodeId p = lookup(processes, m.process);
      const NodeId r = lookup(resources, m.resource);
      if (!p.valid())
        return Error{"mapping references unknown process '" + m.process + "'"};
      if (!r.valid())
        return Error{"mapping references unknown resource '" + m.resource +
                     "'"};
      spec_.add_mapping(p, r, m.latency);
    }
    if (options.validate) {
      if (Status s = spec_.validate(); !s.ok()) return s;
    }
    return Status::Ok();
  }

  [[nodiscard]] SpecificationGraph take() { return std::move(spec_); }

 private:
  enum class ScalarKind { kString, kNumber, kOther };

  Frame& top() { return frames_.back(); }
  /// Frame `n` levels below the top (layout is fixed per context).
  Frame& below(std::size_t n) { return frames_[frames_.size() - 1 - n]; }

  /// Wraps `message` with the enclosing graph label, exactly as the DOM
  /// reader's callers did for everything inside "problem"/"architecture".
  Status err(const std::string& message) {
    if (graph_ != nullptr) return Error{message}.wrap(graph_label_);
    return Error{message};
  }

  void push(Frame frame) { frames_.push_back(std::move(frame)); }

  Status skip_subtree() {
    Frame skip(Ctx::kSkip);
    skip.skip_depth = 1;
    push(std::move(skip));
    return Status::Ok();
  }

  // ---- materialization ------------------------------------------------------

  /// Pushes the frame of a node, cluster or port: the entity whose
  /// identity `name_`/`kind_` collect from here on.
  void push_entity(Frame frame) {
    name_.clear();
    kind_.clear();
    push(std::move(frame));
  }

  /// Creates the node for a kNode frame once its identity is known.  The
  /// schema requires "name"/"kind" before "clusters"/"ports" in streaming
  /// input; the writer has always emitted them first.
  Status materialize_node(Frame& f) {
    if (f.materialized) return Status::Ok();
    if (name_.empty()) return err("node without a name");
    const std::string_view kind =
        kind_.empty() ? std::string_view("vertex") : std::string_view(kind_);
    // Layout: ... kCluster kClusterNodes kNode(top).
    Frame& cf = frames_[frames_.size() - 3];
    if (kind == "interface") {
      f.node = graph_->add_interface(cf.cluster, name_);
    } else if (kind == "vertex") {
      f.node = graph_->add_vertex(cf.cluster, name_);
    } else {
      return err("unknown node kind '" + std::string(kind) + "'");
    }
    for (const auto& [k, v] : node_attrs_) graph_->set_attr(f.node, k, v);
    node_attrs_.clear();
    f.materialized = true;
    return Status::Ok();
  }

  /// Creates the cluster for a refinement kCluster frame.
  Status materialize_cluster(Frame& f) {
    if (f.materialized) return Status::Ok();
    if (name_.empty()) return err("cluster without a name");
    // Layout: ... kNode kNodeClusters kCluster(top).
    Frame& iface = frames_[frames_.size() - 3];
    f.cluster = graph_->add_cluster(iface.node, name_);
    f.materialized = true;
    return Status::Ok();
  }

  /// Resolves a cluster's deferred edges against its completed node list;
  /// of two nodes with one name, the later one wins.
  Status resolve_edges(Frame& cf) {
    if (pending_edges_.size() == cf.edges_begin) return Status::Ok();
    local_.clear();
    for (const NodeId n : graph_->cluster(cf.cluster).nodes)
      local_.insert_or_assign(graph_->node(n).name, n);
    for (std::size_t i = cf.edges_begin; i < pending_edges_.size(); ++i) {
      const PendingEdge& pe = pending_edges_[i];
      const auto fi = local_.find(pe.from);
      const auto ti = local_.find(pe.to);
      if (fi == local_.end() || ti == local_.end())
        return err(strprintf(
            "edge '%s' -> '%s' references nodes outside its cluster",
            pe.from.c_str(), pe.to.c_str()));
      PortId sp, dp;
      if (!pe.src_port.empty()) {
        sp = graph_->find_port(fi->second, pe.src_port);
        if (!sp.valid()) return err("unknown src_port '" + pe.src_port + "'");
      }
      if (!pe.dst_port.empty()) {
        dp = graph_->find_port(ti->second, pe.dst_port);
        if (!dp.valid()) return err("unknown dst_port '" + pe.dst_port + "'");
      }
      const EdgeId eid = graph_->add_edge(fi->second, ti->second, sp, dp);
      for (const auto& [k, v] : pe.attrs) graph_->set_attr(eid, k, v);
    }
    pending_edges_.resize(cf.edges_begin);
    return Status::Ok();
  }

  /// Resolves a graph's deferred port mappings once every cluster exists.
  Status resolve_port_mappings() {
    if (port_mappings_.empty()) return Status::Ok();
    const auto clusters = first_by_name<ClusterId>(graph_->clusters());
    const auto nodes = first_by_name<NodeId>(graph_->nodes());
    for (const PendingPortMapping& pm : port_mappings_) {
      const ClusterId cid = lookup(clusters, pm.cluster_name);
      const NodeId nid = lookup(nodes, pm.node_name);
      if (!cid.valid())
        return err("port mapping references unknown cluster '" +
                   pm.cluster_name + "'");
      if (!nid.valid())
        return err("port mapping references unknown node '" + pm.node_name +
                   "'");
      graph_->map_port(pm.port, cid, nid);
    }
    port_mappings_.clear();
    return Status::Ok();
  }

  // ---- event dispatch -------------------------------------------------------

  Status scalar(ScalarKind sk, double num, std::string&& str) {
    Frame& f = top();
    switch (f.ctx) {
      case Ctx::kPreDoc:
        return Error{"specification must be a JSON object"};

      case Ctx::kDoc:
        if (f.key == "name" && !f.seen_name) {
          f.seen_name = true;
          if (sk == ScalarKind::kString) spec_.set_name(std::move(str));
        } else if (f.key == "problem" && !seen_problem_) {
          seen_problem_ = true;
          return Error{"graph is missing its 'root' cluster"}.wrap(
              "problem graph");
        } else if (f.key == "architecture" && !seen_architecture_) {
          seen_architecture_ = true;
          return Error{"graph is missing its 'root' cluster"}.wrap(
              "architecture graph");
        } else if (f.key == "mappings" && !seen_mappings_) {
          seen_mappings_ = true;
          return Error{"'mappings' must be an array"};
        }
        return Status::Ok();

      case Ctx::kGraph:
        if (f.key == "root" && !f.seen_root) {
          f.seen_root = true;
          return err("graph is missing its 'root' cluster");
        }
        return Status::Ok();

      case Ctx::kCluster:
        if (f.key == "name" && !f.seen_name) {
          f.seen_name = true;
          // The root cluster keeps its name; refinement clusters take
          // theirs from the document.
          if (!f.materialized && sk == ScalarKind::kString)
            name_ = std::move(str);
        } else if (f.key == "attrs" && !f.seen_attrs) {
          f.seen_attrs = true;
          return err("'attrs' must be an object");
        } else if (f.key == "nodes" && !f.seen_nodes) {
          f.seen_nodes = true;
          return err("'nodes' must be an array");
        } else if (f.key == "edges" && !f.seen_edges) {
          f.seen_edges = true;
          return err("'edges' must be an array");
        }
        return Status::Ok();

      case Ctx::kClusterNodes:
        return err("node entries must be objects");

      case Ctx::kClusterEdges:
        // The DOM reader ran `string_or` against non-object entries and got
        // fallbacks — i.e. an edge with empty endpoint names.
        pending_edges_.emplace_back();
        return Status::Ok();

      case Ctx::kNode:
        if (f.key == "name" && !f.seen_name) {
          f.seen_name = true;
          if (sk == ScalarKind::kString && !f.materialized)
            name_ = std::move(str);
        } else if (f.key == "kind" && !f.seen_kind) {
          f.seen_kind = true;
          if (sk == ScalarKind::kString && !f.materialized)
            kind_ = std::move(str);
        } else if (f.key == "attrs" && !f.seen_attrs) {
          f.seen_attrs = true;
          return err("'attrs' must be an object");
        } else if (f.key == "clusters" && !f.seen_clusters) {
          f.seen_clusters = true;
          if (Status s = materialize_node(f); !s.ok()) return s;
          if (graph_->node(f.node).is_interface())
            return err("'clusters' must be an array");
        } else if (f.key == "ports" && !f.seen_ports) {
          f.seen_ports = true;
          if (Status s = materialize_node(f); !s.ok()) return s;
          if (graph_->node(f.node).is_interface())
            return err("'ports' must be an array");
        }
        return Status::Ok();

      case Ctx::kNodeClusters:
        return err("cluster without a name");

      case Ctx::kNodePorts:
        return err("port without a name");

      case Ctx::kPort:
        if (f.key == "name" && !f.seen_name) {
          f.seen_name = true;
          if (sk == ScalarKind::kString) name_ = std::move(str);
        } else if (f.key == "direction" && !f.seen_direction) {
          f.seen_direction = true;
          if (sk == ScalarKind::kString) kind_ = std::move(str);
        } else if (f.key == "mapping" && !f.seen_mapping) {
          f.seen_mapping = true;
          return err("port 'mapping' must be an object");
        }
        return Status::Ok();

      case Ctx::kPortMapping:
        if (sk != ScalarKind::kString)
          return err("port mapping targets must be node names");
        port_mappings_.push_back(
            PendingPortMapping{PortId{}, f.key, std::move(str)});
        return Status::Ok();

      case Ctx::kEdge: {
        PendingEdge& e = pending_edges_.back();
        auto take_name = [&](std::string& dst, bool& seen) {
          if (!seen) {
            seen = true;
            if (sk == ScalarKind::kString) dst = std::move(str);
          }
        };
        if (f.key == "from") take_name(e.from, e.seen_from);
        else if (f.key == "to") take_name(e.to, e.seen_to);
        else if (f.key == "src_port") take_name(e.src_port, e.seen_src);
        else if (f.key == "dst_port") take_name(e.dst_port, e.seen_dst);
        else if (f.key == "attrs" && !e.seen_attrs) {
          e.seen_attrs = true;
          return err("'attrs' must be an object");
        }
        return Status::Ok();
      }

      case Ctx::kAttrs:
        if (sk != ScalarKind::kNumber)
          return err("attribute '" + f.key + "' is not numeric");
        return apply_attr(f.key, num);

      case Ctx::kMappings:
        mappings_.push_back(PendingMapping{});
        return Status::Ok();

      case Ctx::kMapping: {
        PendingMapping& m = mappings_.back();
        if (f.key == "process" && !m.seen_process) {
          m.seen_process = true;
          if (sk == ScalarKind::kString) m.process = std::move(str);
        } else if (f.key == "resource" && !m.seen_resource) {
          m.seen_resource = true;
          if (sk == ScalarKind::kString) m.resource = std::move(str);
        } else if (f.key == "latency" && !m.seen_latency) {
          m.seen_latency = true;
          if (sk == ScalarKind::kNumber) m.latency = num;
        }
        return Status::Ok();
      }

      case Ctx::kSkip:
        return Status::Ok();
    }
    return Error{"spec reader: corrupt context"};  // unreachable
  }

  Status begin_container(bool is_object) {
    Frame& f = top();
    switch (f.ctx) {
      case Ctx::kPreDoc:
        if (!is_object) return Error{"specification must be a JSON object"};
        seen_doc_ = true;
        push(Frame(Ctx::kDoc));
        return Status::Ok();

      case Ctx::kDoc:
        if ((f.key == "problem" && !seen_problem_) ||
            (f.key == "architecture" && !seen_architecture_)) {
          const bool is_problem = f.key == "problem";
          (is_problem ? seen_problem_ : seen_architecture_) = true;
          graph_label_ = is_problem ? "problem graph" : "architecture graph";
          if (!is_object)
            return Error{"graph is missing its 'root' cluster"}.wrap(
                graph_label_);
          graph_ = is_problem ? &spec_.problem() : &spec_.architecture();
          push(Frame(Ctx::kGraph));
          return Status::Ok();
        }
        if (f.key == "mappings" && !seen_mappings_) {
          seen_mappings_ = true;
          if (is_object) return Error{"'mappings' must be an array"};
          push(Frame(Ctx::kMappings));
          return Status::Ok();
        }
        if (f.key == "name" && !f.seen_name) f.seen_name = true;
        return skip_subtree();

      case Ctx::kGraph:
        if (f.key == "root" && !f.seen_root) {
          f.seen_root = true;
          if (!is_object) return err("graph is missing its 'root' cluster");
          Frame root(Ctx::kCluster);
          root.materialized = true;
          root.cluster = graph_->root();
          root.edges_begin = pending_edges_.size();
          push_entity(std::move(root));
          return Status::Ok();
        }
        return skip_subtree();

      case Ctx::kCluster:
        if (f.key == "attrs" && !f.seen_attrs) {
          f.seen_attrs = true;
          if (!is_object) return err("'attrs' must be an object");
          if (Status s = materialize_cluster_if_entry(f); !s.ok()) return s;
          push(Frame(Ctx::kAttrs));
          return Status::Ok();
        }
        if (f.key == "nodes" && !f.seen_nodes) {
          f.seen_nodes = true;
          if (is_object) return err("'nodes' must be an array");
          if (Status s = materialize_cluster_if_entry(f); !s.ok()) return s;
          push(Frame(Ctx::kClusterNodes));
          return Status::Ok();
        }
        if (f.key == "edges" && !f.seen_edges) {
          f.seen_edges = true;
          if (is_object) return err("'edges' must be an array");
          if (Status s = materialize_cluster_if_entry(f); !s.ok()) return s;
          push(Frame(Ctx::kClusterEdges));
          return Status::Ok();
        }
        if (f.key == "name" && !f.seen_name) f.seen_name = true;
        return skip_subtree();

      case Ctx::kClusterNodes:
        if (!is_object) return err("node entries must be objects");
        push_entity(Frame(Ctx::kNode));
        return Status::Ok();

      case Ctx::kClusterEdges:
        if (!is_object) {
          // Non-object entry: fallback semantics (empty endpoint names).
          pending_edges_.emplace_back();
          return skip_subtree();
        }
        pending_edges_.emplace_back();
        push(Frame(Ctx::kEdge));
        return Status::Ok();

      case Ctx::kNode:
        if (f.key == "attrs" && !f.seen_attrs) {
          f.seen_attrs = true;
          if (!is_object) return err("'attrs' must be an object");
          push(Frame(Ctx::kAttrs));
          return Status::Ok();
        }
        if (f.key == "clusters" && !f.seen_clusters) {
          f.seen_clusters = true;
          if (Status s = materialize_node(f); !s.ok()) return s;
          if (!graph_->node(f.node).is_interface()) return skip_subtree();
          if (is_object) return err("'clusters' must be an array");
          push(Frame(Ctx::kNodeClusters));
          return Status::Ok();
        }
        if (f.key == "ports" && !f.seen_ports) {
          f.seen_ports = true;
          if (Status s = materialize_node(f); !s.ok()) return s;
          if (!graph_->node(f.node).is_interface()) return skip_subtree();
          if (is_object) return err("'ports' must be an array");
          push(Frame(Ctx::kNodePorts));
          return Status::Ok();
        }
        if (f.key == "name" && !f.seen_name) f.seen_name = true;
        if (f.key == "kind" && !f.seen_kind) f.seen_kind = true;
        return skip_subtree();

      case Ctx::kNodeClusters: {
        if (!is_object) return err("cluster without a name");
        Frame cluster(Ctx::kCluster);
        cluster.edges_begin = pending_edges_.size();
        push_entity(std::move(cluster));
        return Status::Ok();
      }

      case Ctx::kNodePorts:
        if (!is_object) return err("port without a name");
        port_mappings_begin_ = port_mappings_.size();
        push_entity(Frame(Ctx::kPort));
        return Status::Ok();

      case Ctx::kPort:
        if (f.key == "mapping" && !f.seen_mapping) {
          f.seen_mapping = true;
          if (!is_object) return err("port 'mapping' must be an object");
          push(Frame(Ctx::kPortMapping));
          return Status::Ok();
        }
        if (f.key == "name" && !f.seen_name) f.seen_name = true;
        if (f.key == "direction" && !f.seen_direction) f.seen_direction = true;
        return skip_subtree();

      case Ctx::kPortMapping:
        return err("port mapping targets must be node names");

      case Ctx::kEdge:
        if (f.key == "attrs" && !pending_edges_.back().seen_attrs) {
          pending_edges_.back().seen_attrs = true;
          if (!is_object) return err("'attrs' must be an object");
          push(Frame(Ctx::kAttrs));
          return Status::Ok();
        }
        // Container values for from/to/... fall back to "" (string_or).
        return skip_subtree();

      case Ctx::kAttrs:
        return err("attribute '" + f.key + "' is not numeric");

      case Ctx::kMappings:
        if (!is_object) {
          mappings_.push_back(PendingMapping{});
          return skip_subtree();
        }
        mappings_.emplace_back();
        push(Frame(Ctx::kMapping));
        return Status::Ok();

      case Ctx::kMapping:
        return skip_subtree();

      case Ctx::kSkip:
        ++f.skip_depth;
        return Status::Ok();
    }
    return Error{"spec reader: corrupt context"};  // unreachable
  }

  Status end_container() {
    Frame& f = top();
    switch (f.ctx) {
      case Ctx::kSkip:
        if (--f.skip_depth == 0) frames_.pop_back();
        return Status::Ok();

      case Ctx::kDoc:
        frames_.pop_back();
        return Status::Ok();

      case Ctx::kGraph: {
        Status s = f.seen_root
                       ? resolve_port_mappings()
                       : err("graph is missing its 'root' cluster");
        graph_ = nullptr;
        graph_label_ = nullptr;
        frames_.pop_back();
        return s;
      }

      case Ctx::kCluster: {
        if (Status s = materialize_cluster_if_entry(f); !s.ok()) return s;
        if (Status s = resolve_edges(f); !s.ok()) return s;
        frames_.pop_back();
        return Status::Ok();
      }

      case Ctx::kNode: {
        if (Status s = materialize_node(f); !s.ok()) return s;
        frames_.pop_back();
        return Status::Ok();
      }

      case Ctx::kPort: {
        if (name_.empty()) return err("port without a name");
        // Layout: ... kNode kNodePorts kPort(top).
        Frame& iface = frames_[frames_.size() - 3];
        const PortId pid = graph_->add_port(
            iface.node, name_,
            kind_ == "out" ? PortDirection::kOut : PortDirection::kIn);
        for (std::size_t i = port_mappings_begin_; i < port_mappings_.size();
             ++i)
          port_mappings_[i].port = pid;
        frames_.pop_back();
        return Status::Ok();
      }

      case Ctx::kEdge:
      case Ctx::kMapping:
      case Ctx::kAttrs:
      case Ctx::kPortMapping:
      case Ctx::kClusterNodes:
      case Ctx::kClusterEdges:
      case Ctx::kNodeClusters:
      case Ctx::kNodePorts:
      case Ctx::kMappings:
        frames_.pop_back();
        return Status::Ok();

      case Ctx::kPreDoc:
        break;  // unreachable: the parser balances containers
    }
    return Error{"spec reader: corrupt context"};  // unreachable
  }

  /// Refinement clusters materialize lazily (their name must arrive before
  /// any content); the root cluster is pre-materialized.
  Status materialize_cluster_if_entry(Frame& f) {
    if (f.materialized) return Status::Ok();
    return materialize_cluster(f);
  }

  /// Routes a validated attrs entry to the entity owning the kAttrs frame.
  Status apply_attr(const std::string& key, double value) {
    Frame& owner = below(1);
    switch (owner.ctx) {
      case Ctx::kCluster:
        graph_->set_attr(owner.cluster, key, value);
        return Status::Ok();
      case Ctx::kNode:
        if (owner.materialized)
          graph_->set_attr(owner.node, key, value);
        else
          node_attrs_.emplace_back(key, value);
        return Status::Ok();
      case Ctx::kEdge:
        pending_edges_.back().attrs.emplace_back(key, value);
        return Status::Ok();
      default:
        return Error{"spec reader: stray attrs context"};  // unreachable
    }
  }

  SpecificationGraph spec_{"G_S"};
  std::vector<Frame> frames_;
  HierarchicalGraph* graph_ = nullptr;   // inside "problem"/"architecture"
  const char* graph_label_ = nullptr;    // matching wrap() prefix

  // Payload stacks; each is pushed only by the contexts named.  Only the
  // innermost node, cluster or port can still lack its entity: a node and
  // a refinement cluster are created before any nested node, cluster or
  // port opens, and a port nests none.  So one identity and one attribute
  // buffer serve them all.
  std::string name_;  // kNode / kCluster / kPort: "name"
  std::string kind_;  // kNode: "kind" ("" = "vertex"); kPort: "direction"
  /// kNode: attrs seen before its node exists (applied on creation).
  std::vector<std::pair<std::string, double>> node_attrs_;
  /// kEdge and kClusterEdges: each open cluster's deferred edges, from its
  /// frame's `edges_begin` up; a cluster pops its own when it closes.
  std::vector<PendingEdge> pending_edges_;
  /// The cluster-local name table `resolve_edges` refills per call; its
  /// keys view the graph's node names and are read only within that call,
  /// which adds no node.
  std::unordered_map<std::string_view, NodeId> local_;
  /// kPortMapping: per graph, resolved and cleared when the graph closes;
  /// the open port's entries start at `port_mappings_begin_` and get its
  /// id when it closes.
  std::vector<PendingPortMapping> port_mappings_;
  std::size_t port_mappings_begin_ = 0;
  /// kMappings and kMapping: resolved when the document completes.
  std::vector<PendingMapping> mappings_;
  bool seen_doc_ = false;
  bool seen_problem_ = false;
  bool seen_architecture_ = false;
  bool seen_mappings_ = false;
};

}  // namespace

Result<SpecificationGraph> spec_from_stream(ByteReader& in,
                                            const SpecParseOptions& options) {
  SpecStreamBuilder builder;
  JsonStreamParser parser(builder, options.limits);
  char buf[64 * 1024];
  while (true) {
    Result<std::size_t> n = in.read(buf, sizeof buf);
    if (!n.ok()) return n.error();
    if (n.value() == 0) break;
    if (Status s = parser.feed(std::string_view(buf, n.value())); !s.ok())
      return s.error();
  }
  if (Status s = parser.finish(); !s.ok()) return s.error();
  if (Status s = builder.finalize(options); !s.ok()) return s.error();
  return builder.take();
}

Result<SpecificationGraph> spec_from_string(std::string_view text,
                                            const SpecParseOptions& options) {
  StringViewByteReader reader(text);
  return spec_from_stream(reader, options);
}

Result<SpecificationGraph> spec_from_json(const Json& doc,
                                          const SpecParseOptions& options) {
  SpecStreamBuilder builder;
  if (Status s = replay_json_events(doc, builder); !s.ok()) return s.error();
  if (Status s = builder.finalize(options); !s.ok()) return s.error();
  return builder.take();
}

Result<SpecificationGraph> spec_from_file(const std::string& path,
                                          const SpecParseOptions& options) {
  if (path == "-") {
    IstreamByteReader reader(std::cin);
    Result<SpecificationGraph> spec = spec_from_stream(reader, options);
    if (!spec.ok()) return spec.error().wrap("<stdin>");
    return spec;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error{"cannot open '" + path + "'"};
  IstreamByteReader reader(in);
  Result<SpecificationGraph> spec = spec_from_stream(reader, options);
  if (!spec.ok()) return spec.error().wrap(path);
  return spec;
}

}  // namespace sdf
