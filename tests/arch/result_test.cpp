#include "arch/result.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "obs/json.hpp"

namespace archex {
namespace {

Architecture sample() {
  Architecture a;
  a.nodes = {
      {"G1", "Gen", "HV", {"LE"}, true, 0, "GenHV"},
      {"B1", "Bus", "LV", {}, true, 1, "BusLV"},
      {"B2", "Bus", "", {}, false, -1, ""},
      {"L1", "Load", "", {"critical"}, true, 2, "LoadX"},
  };
  a.edges = {{0, 1}, {1, 3}};
  a.cost = 42.0;
  a.flows["power"] = {{0, 1, 3.5}, {1, 3, 3.5}};
  return a;
}

TEST(ArchitectureTest, UsedNodeQueries) {
  const Architecture a = sample();
  EXPECT_EQ(a.num_used_nodes(), 3u);
  EXPECT_EQ(a.used_nodes().size(), 3u);
  EXPECT_EQ(a.used_nodes(NodeFilter::of_type("Bus")).size(), 1u);
  EXPECT_EQ(a.used_nodes({"Load", "", "critical"}).size(), 1u);
  EXPECT_EQ(a.used_nodes({"Load", "", "sheddable"}).size(), 0u);
}

TEST(ArchitectureTest, EdgesAndDigraph) {
  const Architecture a = sample();
  EXPECT_TRUE(a.has_edge(0, 1));
  EXPECT_FALSE(a.has_edge(1, 0));
  const graph::Digraph g = a.to_digraph();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(graph::reaches(g, {0}, 3));
}

TEST(ArchitectureTest, NodeFailProbs) {
  Library lib;
  lib.add({"GenHV", "Gen", "HV", {}, {{attr::kFailProb, 0.25}}});
  lib.add({"BusLV", "Bus", "LV", {}, {{attr::kFailProb, 0.5}}});
  lib.add({"LoadX", "Load", "", {}, {}});
  const Architecture a = sample();
  const std::vector<double> p = a.node_fail_probs(lib);
  EXPECT_EQ(p[0], 0.25);
  EXPECT_EQ(p[1], 0.5);
  EXPECT_EQ(p[2], 0.0);  // unused
  EXPECT_EQ(p[3], 0.0);  // load: no failprob attribute
}

TEST(ArchitectureTest, InFlowSums) {
  const Architecture a = sample();
  EXPECT_DOUBLE_EQ(a.in_flow("power", 1), 3.5);
  EXPECT_DOUBLE_EQ(a.in_flow("power", 3), 3.5);
  EXPECT_DOUBLE_EQ(a.in_flow("power", 0), 0.0);
  EXPECT_DOUBLE_EQ(a.in_flow("missing", 1), 0.0);
}

TEST(ArchitectureTest, DotOutput) {
  const Architecture a = sample();
  const std::string dot = a.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"G1\" -> \"B1\""), std::string::npos);
  // Unused nodes are not rendered.
  EXPECT_EQ(dot.find("\"B2\""), std::string::npos);
  // Subtype coloring.
  EXPECT_NE(dot.find("palegreen"), std::string::npos);  // HV
  EXPECT_NE(dot.find("khaki"), std::string::npos);      // LV
}

TEST(ArchitectureTest, JsonOutput) {
  const Architecture a = sample();
  const std::string js = a.to_json();
  EXPECT_NE(js.find("\"cost\": 42"), std::string::npos);
  EXPECT_NE(js.find("\"name\": \"G1\""), std::string::npos);
  EXPECT_NE(js.find("\"impl\": \"GenHV\""), std::string::npos);
  EXPECT_EQ(js.find("B2"), std::string::npos);  // unused node omitted
  EXPECT_NE(js.find("[\"G1\", \"B1\"]"), std::string::npos);
  EXPECT_NE(js.find("\"power\": [[\"G1\", \"B1\", 3.5]"), std::string::npos);
}

TEST(ArchitectureTest, JsonRoundTripsNamesAndNumbers) {
  Architecture a = sample();
  a.nodes[0].name = "G\r1";
  a.nodes[1].impl_name = std::string("Bus\x01LV");
  a.cost = 40512.25;
  a.flows["power"][0].rate = 1234567.5;
  std::string err;
  const std::optional<obs::Json> doc = obs::Json::parse(a.to_json(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("cost")->as_number(), 40512.25);
  const obs::Json::Array& nodes = doc->find("nodes")->as_array();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0].get_string("name"), "G\r1");
  EXPECT_EQ(nodes[1].get_string("impl"), std::string("Bus\x01LV"));
  EXPECT_EQ(doc->find("edges")->as_array()[0].as_array()[0].as_string(), "G\r1");
  const obs::Json& flow = doc->find("flows")->find("power")->as_array()[0];
  EXPECT_EQ(flow.as_array()[2].as_number(), 1234567.5);

  a.cost = std::numeric_limits<double>::infinity();
  const std::optional<obs::Json> inf = obs::Json::parse(a.to_json(), &err);
  ASSERT_TRUE(inf.has_value()) << err;
  EXPECT_TRUE(inf->find("cost")->is_null());
}

TEST(ArchitectureTest, PrintSummary) {
  const Architecture a = sample();
  std::ostringstream os;
  a.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("3/4 nodes"), std::string::npos);
  EXPECT_NE(text.find("cost 42"), std::string::npos);
  EXPECT_NE(text.find("G1->B1"), std::string::npos);
  EXPECT_NE(text.find("flow[power]"), std::string::npos);
}

}  // namespace
}  // namespace archex
