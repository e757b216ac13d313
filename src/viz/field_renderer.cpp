#include "viz/field_renderer.h"

namespace poolnet::viz {

namespace {
// A small qualitative palette; pools cycle through it.
constexpr Color kPalette[] = {
    {31, 119, 180},   // blue
    {255, 127, 14},   // orange
    {44, 160, 44},    // green
    {214, 39, 40},    // red
    {148, 103, 189},  // purple
    {140, 86, 75},    // brown
    {227, 119, 194},  // pink
    {127, 127, 127},  // gray
};
constexpr Color kGridColor{220, 220, 220};
constexpr Color kNodeColor{120, 120, 120};
}  // namespace

FieldRenderer::FieldRenderer(const core::PoolSystem& pool,
                             RenderOptions options)
    : pool_(pool),
      net_(pool.network()),
      options_(options),
      svg_(net_.field().width(), net_.field().height()) {}

Color FieldRenderer::pool_color(std::size_t pool_dim) const {
  return kPalette[pool_dim % (sizeof(kPalette) / sizeof(kPalette[0]))];
}

Rect FieldRenderer::cell_rect(core::CellCoord c) const {
  const double a = pool_.grid().cell_size();
  const Rect& f = net_.field();
  return {f.min_x + c.x * a, f.min_y + c.y * a, f.min_x + (c.x + 1) * a,
          f.min_y + (c.y + 1) * a};
}

void FieldRenderer::draw_field() {
  const auto& grid = pool_.grid();
  const Rect& f = net_.field();

  if (options_.draw_grid) {
    const double a = grid.cell_size();
    for (std::int32_t x = 0; x <= grid.cols(); ++x) {
      const double gx = f.min_x + x * a;
      svg_.line({gx, f.min_y}, {gx, f.max_y}, kGridColor, 0.2);
    }
    for (std::int32_t y = 0; y <= grid.rows(); ++y) {
      const double gy = f.min_y + y * a;
      svg_.line({f.min_x, gy}, {f.max_x, gy}, kGridColor, 0.2);
    }
  }

  // Pool outlines (and labels), Figure 2 style.
  const auto& layout = pool_.layout();
  const auto side = static_cast<std::int32_t>(layout.side());
  for (std::size_t p = 0; p < layout.pool_count(); ++p) {
    const auto pc = layout.pivot(p);
    const Rect lo = cell_rect(pc);
    const Rect hi = cell_rect({pc.x + side - 1, pc.y + side - 1});
    const Rect outline{lo.min_x, lo.min_y, hi.max_x, hi.max_y};
    svg_.rect(outline, pool_color(p), 1.0, pool_color(p), 0.07);
    if (options_.draw_pool_labels) {
      svg_.text({outline.min_x + 1.0, outline.max_y - 4.0},
                "P" + std::to_string(p + 1), 6.0, pool_color(p));
    }
  }

  if (options_.draw_nodes) {
    for (const Point p : net_.positions())
      svg_.circle(p, options_.node_radius, kNodeColor, 0.8);
  }

  if (options_.draw_index_nodes) {
    for (std::size_t p = 0; p < layout.pool_count(); ++p) {
      for (std::uint32_t vo = 0; vo < layout.side(); ++vo) {
        for (std::uint32_t ho = 0; ho < layout.side(); ++ho) {
          const net::NodeId idx =
              pool_.grid().index_node(layout.cell(p, {ho, vo}));
          svg_.circle(net_.position(idx), options_.node_radius * 1.3,
                      pool_color(p), 0.9);
        }
      }
    }
  }
}

void FieldRenderer::draw_query_footprint(const storage::RangeQuery& q) {
  const auto& layout = pool_.layout();
  for (std::size_t p = 0; p < layout.pool_count(); ++p) {
    for (const core::CellOffset off :
         core::relevant_cells(q, p, layout.side())) {
      svg_.rect(cell_rect(layout.cell(p, off)), pool_color(p), 0.6,
                pool_color(p), 0.5);
    }
  }
}

void FieldRenderer::draw_route(const routing::RouteResult& route, Color color,
                               double width) {
  std::vector<Point> points;
  points.reserve(route.path.size());
  for (const net::NodeId id : route.path) points.push_back(net_.position(id));
  svg_.polyline(points, color, width, 0.9);
}

void FieldRenderer::mark_node(net::NodeId node, const std::string& label,
                              Color color) {
  const Point p = net_.position(node);
  svg_.circle(p, options_.node_radius * 2.5, color, 0.4);
  svg_.circle(p, options_.node_radius * 1.2, color, 1.0);
  svg_.text({p.x + 3.0, p.y + 3.0}, label, 6.0, color);
}

}  // namespace poolnet::viz
