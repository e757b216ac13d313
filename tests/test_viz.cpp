#include "viz/field_renderer.h"

#include <gtest/gtest.h>

#include <fstream>

#include "bench_support/testbed.h"
#include "common/error.h"

namespace poolnet::viz {
namespace {

using benchsup::SystemKind;

TEST(Svg, EmptyDocumentIsWellFormed) {
  const SvgDocument doc(100, 50);
  const auto s = doc.to_string();
  EXPECT_NE(s.find("<?xml"), std::string::npos);
  EXPECT_NE(s.find("viewBox=\"0 0 100.00 50.00\""), std::string::npos);
  EXPECT_NE(s.find("</svg>"), std::string::npos);
  EXPECT_EQ(doc.element_count(), 0u);
}

TEST(Svg, ShapesAreEmitted) {
  SvgDocument doc(100, 100);
  doc.circle({10, 10}, 2, kBlack);
  doc.line({0, 0}, {50, 50}, Color{255, 0, 0}, 1.0);
  doc.rect({10, 10, 20, 20}, kBlack, 0.5, Color{0, 255, 0}, 0.3);
  doc.polyline({{0, 0}, {10, 5}, {20, 0}}, kBlack, 1.0);
  doc.text({5, 5}, "P1", 6.0, kBlack);
  EXPECT_EQ(doc.element_count(), 5u);
  const auto s = doc.to_string();
  EXPECT_NE(s.find("<circle"), std::string::npos);
  EXPECT_NE(s.find("<line"), std::string::npos);
  EXPECT_NE(s.find("<rect"), std::string::npos);
  EXPECT_NE(s.find("<polyline"), std::string::npos);
  EXPECT_NE(s.find(">P1</text>"), std::string::npos);
  EXPECT_NE(s.find("#ff0000"), std::string::npos);
}

TEST(Svg, YAxisIsFlipped) {
  SvgDocument doc(100, 100);
  doc.circle({10, 0}, 1, kBlack);  // field y=0 -> svg y=100 (bottom)
  EXPECT_NE(doc.to_string().find("cy=\"100.00\""), std::string::npos);
}

TEST(Svg, TextIsXmlEscaped) {
  SvgDocument doc(10, 10);
  doc.text({1, 1}, "a<b&c", 5.0, kBlack);
  const auto s = doc.to_string();
  EXPECT_NE(s.find("a&lt;b&amp;c"), std::string::npos);
  EXPECT_EQ(s.find("a<b"), std::string::npos);
}

TEST(Svg, DegenerateCanvasThrows) {
  EXPECT_THROW(SvgDocument(0, 10), poolnet::ConfigError);
}

TEST(Svg, PolylineNeedsTwoPoints) {
  SvgDocument doc(10, 10);
  doc.polyline({{1, 1}}, kBlack, 1.0);
  EXPECT_EQ(doc.element_count(), 0u);
}

TEST(FieldRenderer, DrawsFieldLayers) {
  benchsup::TestbedConfig config;
  config.nodes = 200;
  config.seed = 2;
  benchsup::Testbed tb(config);
  FieldRenderer renderer(tb.pool());
  renderer.draw_field();
  // Grid lines + 3 pool rects + labels + 200 nodes + 300 index markers.
  EXPECT_GT(renderer.document().element_count(), 500u);
}

TEST(FieldRenderer, QueryFootprintAddsOneRectPerRelevantCell) {
  benchsup::TestbedConfig config;
  config.nodes = 200;
  config.seed = 3;
  benchsup::Testbed tb(config);
  FieldRenderer renderer(tb.pool(), {.draw_grid = false,
                                     .draw_nodes = false,
                                     .draw_index_nodes = false,
                                     .draw_pool_labels = false});
  const storage::RangeQuery q({{0.2, 0.3}, {0.25, 0.35}, {0.21, 0.24}});
  const auto before = renderer.document().element_count();
  renderer.draw_query_footprint(q);
  EXPECT_EQ(renderer.document().element_count() - before,
            tb.pool().relevant_cell_count(q));
}

TEST(FieldRenderer, RouteBecomesPolyline) {
  benchsup::TestbedConfig config;
  config.nodes = 200;
  config.seed = 4;
  benchsup::Testbed tb(config);
  FieldRenderer renderer(tb.pool());
  const auto route = tb.gpsr(SystemKind::Pool).route_to_node(0, 150);
  const auto before = renderer.document().element_count();
  renderer.draw_route(route, Color{200, 0, 0});
  EXPECT_EQ(renderer.document().element_count(), before + 1);
}

TEST(FieldRenderer, WriteProducesReadableFile) {
  benchsup::TestbedConfig config;
  config.nodes = 150;
  config.seed = 5;
  benchsup::Testbed tb(config);
  FieldRenderer renderer(tb.pool());
  renderer.draw_field();
  const std::string path = ::testing::TempDir() + "/poolnet_test.svg";
  renderer.write(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_NE(first.find("<?xml"), std::string::npos);
}

}  // namespace
}  // namespace poolnet::viz
