// Tests for irf::spice: value parsing, node names, netlist, parser, writer
// round-trips and the netlist's pad and reachability queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "spice/netlist.hpp"
#include "spice/node_name.hpp"
#include "spice/parser.hpp"
#include "spice/value.hpp"
#include "spice/writer.hpp"

namespace irf::spice {
namespace {

TEST(Value, PlainNumbers) {
  EXPECT_DOUBLE_EQ(parse_value("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(parse_value("-3"), -3.0);
  EXPECT_DOUBLE_EQ(parse_value("1e-3"), 1e-3);
}

TEST(Value, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(parse_value("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(parse_value("2k"), 2e3);
  EXPECT_DOUBLE_EQ(parse_value("2MEG"), 2e6);
  EXPECT_DOUBLE_EQ(parse_value("5u"), 5e-6);
  EXPECT_DOUBLE_EQ(parse_value("7n"), 7e-9);
  EXPECT_DOUBLE_EQ(parse_value("1p"), 1e-12);
  EXPECT_DOUBLE_EQ(parse_value("4f"), 4e-15);
  EXPECT_DOUBLE_EQ(parse_value("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_value("2t"), 2e12);
}

TEST(Value, TrailingUnitLetters) {
  EXPECT_DOUBLE_EQ(parse_value("2kohm"), 2e3);
  EXPECT_DOUBLE_EQ(parse_value("3mA"), 3e-3);
}

TEST(Value, MalformedThrows) {
  EXPECT_THROW(parse_value(""), ParseError);
  EXPECT_THROW(parse_value("abc"), ParseError);
  EXPECT_THROW(parse_value("1x"), ParseError);
  // The checked parser also rejects forms strtod would quietly accept.
  EXPECT_THROW(parse_value("inf"), ParseError);
  EXPECT_THROW(parse_value("nan"), ParseError);
  EXPECT_THROW(parse_value("0x10"), ParseError);
  EXPECT_THROW(parse_value("1e999"), ParseError);
}

TEST(Value, FormatRoundTrips) {
  for (double v : {0.5, 1234.5678, 1e-9, -42.0}) {
    EXPECT_DOUBLE_EQ(parse_value(format_value(v)), v);
  }
}

TEST(NodeName, ParseAndCompose) {
  NodeCoords c = parse_node_name("n1_m4_17500_209000");
  EXPECT_EQ(c.net, 1);
  EXPECT_EQ(c.layer, 4);
  EXPECT_EQ(c.x_nm, 17500);
  EXPECT_EQ(c.y_nm, 209000);
  EXPECT_EQ(make_node_name(c), "n1_m4_17500_209000");
}

TEST(NodeName, Detection) {
  EXPECT_TRUE(is_coordinate_name("n1_m1_0_0"));
  EXPECT_FALSE(is_coordinate_name("vdd"));
  EXPECT_FALSE(is_coordinate_name("n1_m1_0"));
  EXPECT_FALSE(is_coordinate_name("x1_m1_0_0"));
  EXPECT_FALSE(is_coordinate_name("n1_m1_a_0"));
  EXPECT_THROW(parse_node_name("bogus"), ParseError);
}

TEST(Netlist, InterningAndGround) {
  Netlist net;
  NodeId a = net.intern_node("n1_m1_0_0");
  NodeId b = net.intern_node("n1_m1_0_0");
  EXPECT_EQ(a, b);
  EXPECT_EQ(net.intern_node("0"), kGround);
  EXPECT_EQ(net.intern_node("gnd"), kGround);
  EXPECT_EQ(net.num_nodes(), 1);
  ASSERT_TRUE(net.node_coords(a).has_value());
  EXPECT_EQ(net.node_coords(a)->layer, 1);
}

TEST(Netlist, ValidationCatchesProblems) {
  Netlist net;
  NodeId a = net.intern_node("n1_m1_0_0");
  EXPECT_THROW(net.add_resistor("R1", a, a, -1.0), ParseError);  // negative R
  net.add_resistor("R1", a, net.intern_node("n1_m1_2000_0"), 1.0);
  EXPECT_THROW(net.validate(), ParseError);  // no voltage source
  net.add_voltage_source("V1", a, 1.1);
  EXPECT_NO_THROW(net.validate());
}

TEST(Netlist, LayersSorted) {
  Netlist net;
  net.intern_node("n1_m7_0_0");
  net.intern_node("n1_m1_0_0");
  net.intern_node("n1_m4_0_0");
  std::vector<int> layers = net.layers();
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0], 1);
  EXPECT_EQ(layers[2], 7);
}

TEST(Netlist, ScaleCurrents) {
  Netlist net;
  NodeId a = net.intern_node("n1_m1_0_0");
  net.add_current_source("I1", a, 2.0);
  net.scale_current_sources(0.5);
  EXPECT_DOUBLE_EQ(net.current_sources()[0].amps, 1.0);
}

constexpr const char* kDeck = R"(* tiny PG deck
V1 n1_m2_0_0 0 1.1
R1 n1_m1_0_0 n1_m1_2000_0 0.5
R2 n1_m1_2000_0 n1_m1_4000_0 0.5
Rv n1_m2_0_0 n1_m1_0_0 0.1
I1 n1_m1_4000_0 0 1m
.end
)";

TEST(Parser, ParsesTinyDeck) {
  Netlist net = parse_string(kDeck);
  EXPECT_EQ(net.num_nodes(), 4);
  EXPECT_EQ(net.resistors().size(), 3u);
  EXPECT_EQ(net.current_sources().size(), 1u);
  EXPECT_EQ(net.voltage_sources().size(), 1u);
  EXPECT_DOUBLE_EQ(net.current_sources()[0].amps, 1e-3);
}

TEST(Parser, HandlesCommentsAndContinuations) {
  Netlist net = parse_string(
      "* comment\n"
      "V1 n1_m1_0_0 0 1.1 $ inline comment\n"
      "R1 n1_m1_0_0\n"
      "+ n1_m1_2000_0 0.5\n"
      ".end\n");
  EXPECT_EQ(net.resistors().size(), 1u);
  EXPECT_DOUBLE_EQ(net.resistors()[0].ohms, 0.5);
}

TEST(Parser, ReversedSourceOrientationNormalized) {
  Netlist net = parse_string(
      "V1 0 n1_m1_0_0 -1.1\n"
      "R1 n1_m1_0_0 n1_m1_2000_0 1\n"
      "I1 0 n1_m1_2000_0 -2m\n");
  EXPECT_DOUBLE_EQ(net.voltage_sources()[0].volts, 1.1);
  EXPECT_DOUBLE_EQ(net.current_sources()[0].amps, 2e-3);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_string("V1 n1_m1_0_0 0 1.1\nR1 n1_m1_0_0 0.5\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, RejectsUnknownElement) {
  EXPECT_THROW(parse_string("C1 n1_m1_0_0 0 1p\n"), ParseError);
  EXPECT_THROW(parse_string(".weird\n"), ParseError);
}

TEST(Parser, RejectsResistorToNowhere) {
  EXPECT_THROW(parse_string("R1 0 0 1.0\nV1 n1_m1_0_0 0 1.1\n"), ParseError);
}

TEST(Writer, RoundTripPreservesElements) {
  Netlist net = parse_string(kDeck);
  Netlist again = parse_string(write_string(net));
  EXPECT_EQ(again.num_nodes(), net.num_nodes());
  ASSERT_EQ(again.resistors().size(), net.resistors().size());
  for (std::size_t i = 0; i < net.resistors().size(); ++i) {
    EXPECT_DOUBLE_EQ(again.resistors()[i].ohms, net.resistors()[i].ohms);
  }
  ASSERT_EQ(again.current_sources().size(), net.current_sources().size());
  EXPECT_DOUBLE_EQ(again.current_sources()[0].amps, net.current_sources()[0].amps);
  EXPECT_DOUBLE_EQ(again.voltage_sources()[0].volts, net.voltage_sources()[0].volts);
}

TEST(Topology, AdjacencyAndPads) {
  Netlist net = parse_string(kDeck);
  EXPECT_EQ(net.num_nodes(), 4);
  ASSERT_EQ(net.pad_nodes().size(), 1u);
  EXPECT_TRUE(net.all_nodes_reach_pad());
  const NodeId pad = net.pad_nodes()[0];
  EXPECT_EQ(pad, *net.find_node("n1_m2_0_0"));
  EXPECT_DOUBLE_EQ(net.voltage_sources()[0].volts, 1.1);
  // The middle M1 node has two wires.
  const NodeId mid = *net.find_node("n1_m1_2000_0");
  const auto wires = std::count_if(net.resistors().begin(), net.resistors().end(),
                                   [mid](const Resistor& r) { return r.a == mid || r.b == mid; });
  EXPECT_EQ(wires, 2);

  // Sources in descending node order, one node driven twice: the pad list is
  // still ascending with each pad once (the eff_dist sum depends on it).
  net = parse_string(
      "R1 n1_m1_0_0 n1_m1_2000_0 1\n"
      "R2 n1_m1_2000_0 n1_m1_4000_0 1\n"
      "V1 n1_m1_4000_0 0 1.1\n"
      "V2 n1_m1_0_0 0 1.1\n"
      "V3 n1_m1_4000_0 0 1.1\n");
  EXPECT_EQ(net.pad_nodes(),
            (std::vector<NodeId>{*net.find_node("n1_m1_0_0"), *net.find_node("n1_m1_4000_0")}));
}

TEST(Topology, DetectsUnreachableNode) {
  Netlist net = parse_string(
      "V1 n1_m1_0_0 0 1.1\n"
      "R1 n1_m1_0_0 n1_m1_2000_0 1\n"
      "R2 n1_m1_8000_0 n1_m1_10000_0 1\n");  // island
  EXPECT_FALSE(net.all_nodes_reach_pad());
}

}  // namespace
}  // namespace irf::spice
