/// \file aig.hpp
/// \brief And-Inverter Graph: the logic-network substrate.
///
/// The paper extracts its evaluation functions from combinational benchmark
/// circuits via cut enumeration (§V-A). This module provides the circuit
/// representation those benchmarks live in: a classic AIG with complemented
/// edges, constant folding and structural hashing. Node ids are assigned in
/// topological order by construction (fanins always precede their fanouts),
/// which the simulator and cut enumerator rely on.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace facet {

/// `prefix` followed by the decimal `index` ("a3", "idx12"): the naming of
/// generated circuit inputs and outputs.
[[nodiscard]] std::string indexed_name(const char* prefix, std::size_t index);

class Aig {
 public:
  /// Literal = 2 * node + complemented. Node 0 is the constant-false node,
  /// so literal 0 is false and literal 1 is true.
  using Literal = std::uint32_t;
  using Node = std::uint32_t;

  static constexpr Literal kFalse = 0;
  static constexpr Literal kTrue = 1;

  [[nodiscard]] static constexpr Literal make_literal(Node node, bool complemented = false) noexcept
  {
    return (node << 1) | static_cast<Literal>(complemented);
  }
  [[nodiscard]] static constexpr Node literal_node(Literal lit) noexcept { return lit >> 1; }
  [[nodiscard]] static constexpr bool literal_complemented(Literal lit) noexcept { return (lit & 1u) != 0; }
  [[nodiscard]] static constexpr Literal literal_not(Literal lit) noexcept { return lit ^ 1u; }

  Aig();

  /// Adds a primary input; returns its (positive) literal.
  Literal add_input(std::string name = {});

  /// Adds (or finds, via structural hashing) the AND of two literals.
  /// Applies the constant/trivial folding rules.
  Literal add_and(Literal a, Literal b);

  /// Derived gates, expressed over AND/NOT.
  Literal add_or(Literal a, Literal b) { return literal_not(add_and(literal_not(a), literal_not(b))); }
  Literal add_xor(Literal a, Literal b);
  Literal add_mux(Literal sel, Literal if_true, Literal if_false);

  /// Registers a primary output.
  void add_output(Literal lit, std::string name = {});

  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t num_inputs() const noexcept { return inputs_.size(); }
  [[nodiscard]] std::size_t num_ands() const noexcept { return nodes_.size() - 1 - inputs_.size(); }
  [[nodiscard]] std::size_t num_outputs() const noexcept { return outputs_.size(); }

  [[nodiscard]] bool is_constant(Node node) const noexcept { return node == 0; }
  [[nodiscard]] bool is_input(Node node) const noexcept
  {
    return node >= 1 && node <= inputs_.size();
  }
  [[nodiscard]] bool is_and(Node node) const noexcept { return node > inputs_.size() && node < nodes_.size(); }

  /// Fanin literals of an AND node.
  [[nodiscard]] Literal fanin0(Node node) const { return nodes_[node].fanin0; }
  [[nodiscard]] Literal fanin1(Node node) const { return nodes_[node].fanin1; }

  /// The i-th primary input node / literal.
  [[nodiscard]] Node input_node(std::size_t i) const { return inputs_[i]; }
  [[nodiscard]] Literal input_literal(std::size_t i) const { return make_literal(inputs_[i]); }
  /// Index of an input node among the primary inputs.
  [[nodiscard]] std::size_t input_index(Node node) const { return node - 1; }

  [[nodiscard]] const std::vector<Literal>& outputs() const noexcept { return outputs_; }
  [[nodiscard]] const std::string& input_name(std::size_t i) const { return input_names_[i]; }
  [[nodiscard]] const std::string& output_name(std::size_t i) const { return output_names_[i]; }

 private:
  struct NodeData {
    Literal fanin0 = 0;
    Literal fanin1 = 0;
  };

  std::vector<NodeData> nodes_;
  std::vector<Node> inputs_;
  std::vector<std::string> input_names_;
  std::vector<Literal> outputs_;
  std::vector<std::string> output_names_;
  /// Structural hashing: normalized (fanin0, fanin1) -> node.
  std::unordered_map<std::uint64_t, Node> strash_;
};

}  // namespace facet
