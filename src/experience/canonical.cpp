#include "experience/canonical.hpp"

#include <cstring>

namespace oar::experience {

namespace {

void append_i32(std::string& out, std::int32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void append_f64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool in_bounds_edge(const HananGrid& grid, const hanan::Cell& c, hanan::Dir dir) {
  switch (dir) {
    case hanan::Dir::kPosX:
      return c.h + 1 < grid.h_dim();
    case hanan::Dir::kPosY:
      return c.v + 1 < grid.v_dim();
    case hanan::Dir::kPosZ:
      return c.m + 1 < grid.m_dim();
  }
  return false;
}

/// Reconstructs the explicit edge-block bit of (idx, dir).  edge_usable()
/// folds endpoint blocks and bounds into one answer, so an edge is
/// *explicitly* blocked exactly when it is in bounds, both endpoints are
/// clear, and the edge is still unusable.
bool edge_explicitly_blocked(const HananGrid& grid, Vertex idx, hanan::Dir dir) {
  const hanan::Cell c = grid.cell(idx);
  if (!in_bounds_edge(grid, c, dir)) return false;
  Vertex nbr = idx;
  switch (dir) {
    case hanan::Dir::kPosX:
      nbr = idx + 1;
      break;
    case hanan::Dir::kPosY:
      nbr = idx + grid.h_dim();
      break;
    case hanan::Dir::kPosZ:
      nbr = idx + Vertex(grid.h_dim()) * grid.v_dim();
      break;
  }
  if (grid.is_blocked(idx) || grid.is_blocked(nbr)) return false;
  return !grid.edge_usable(idx, dir);
}

/// Serializes transform_grid(grid, spec) without constructing it: the
/// header tracks the dims/steps through the same transform chain as
/// rl::transform_grid, the vertex bytes are scattered through
/// transform_vertex, and the edge-block section is written as zeros (the
/// caller guarantees the grid has none — transformed grids never do).
/// Byte-identical to serialize_grid(rl::transform_grid(grid, spec)).
void serialize_transformed(const HananGrid& grid, const rl::AugmentSpec& spec,
                           const std::string& vertex_bytes, std::string& out) {
  std::vector<double> x_step(grid.h_dim() > 1 ? std::size_t(grid.h_dim() - 1) : 0);
  std::vector<double> y_step(grid.v_dim() > 1 ? std::size_t(grid.v_dim() - 1) : 0);
  for (std::size_t i = 0; i < x_step.size(); ++i) x_step[i] = grid.x_step(std::int32_t(i));
  for (std::size_t i = 0; i < y_step.size(); ++i) y_step[i] = grid.y_step(std::int32_t(i));
  for (std::int32_t r = 0; r < spec.rotation; ++r) {
    std::vector<double> nx = y_step;
    std::vector<double> ny = x_step;
    std::reverse(ny.begin(), ny.end());
    x_step = std::move(nx);
    y_step = std::move(ny);
  }
  if (spec.reflect_v) std::reverse(y_step.begin(), y_step.end());

  const std::int32_t H = std::int32_t(x_step.size()) + 1;
  const std::int32_t V = std::int32_t(y_step.size()) + 1;
  const std::size_t n = vertex_bytes.size();

  out.clear();
  out.reserve(std::size_t(16) + std::size_t(H + V) * 8 + n * 2);
  append_i32(out, H);
  append_i32(out, V);
  append_i32(out, grid.m_dim());
  append_f64(out, grid.via_cost());
  for (const double s : x_step) append_f64(out, s);
  for (const double s : y_step) append_f64(out, s);

  // A rotation/reflection maps (h, v, m) affinely and flat indices are
  // linear in the coordinates, so the destination of vertex (h, v, m) is
  // o + h*dh + v*dv + m*dm: four transform_vertex calls give the strides
  // and the scatter walks them (a third of the per-vertex call's cost).
  const std::size_t base = out.size();
  out.resize(base + n);
  const std::int64_t o = rl::transform_vertex(grid, grid.index(0, 0, 0), spec);
  const auto stride = [&](std::int32_t dim, std::int32_t h, std::int32_t v,
                          std::int32_t m) -> std::int64_t {
    return dim > 1 ? rl::transform_vertex(grid, grid.index(h, v, m), spec) - o
                   : 0;
  };
  const std::int64_t dh = stride(grid.h_dim(), 1, 0, 0);
  const std::int64_t dv = stride(grid.v_dim(), 0, 1, 0);
  const std::int64_t dm = stride(grid.m_dim(), 0, 0, 1);
  std::size_t src = 0;
  for (std::int32_t m = 0; m < grid.m_dim(); ++m) {
    for (std::int32_t v = 0; v < grid.v_dim(); ++v) {
      char* row = out.data() + base + (o + m * dm + v * dv);
      for (std::int32_t h = 0; h < grid.h_dim(); ++h, ++src) {
        row[h * dh] = vertex_bytes[src];
      }
    }
  }
  out.append(n, '\0');  // edge-block section: none by precondition
}

}  // namespace

std::string serialize_grid(const HananGrid& grid) {
  const std::int32_t H = grid.h_dim(), V = grid.v_dim(), M = grid.m_dim();
  std::string out;
  out.reserve(std::size_t(16) + std::size_t(H + V) * 8 +
              std::size_t(grid.num_vertices()) * 3);
  append_i32(out, H);
  append_i32(out, V);
  append_i32(out, M);
  append_f64(out, grid.via_cost());
  for (std::int32_t h = 0; h + 1 < H; ++h) append_f64(out, grid.x_step(h));
  for (std::int32_t v = 0; v + 1 < V; ++v) append_f64(out, grid.y_step(v));
  for (Vertex idx = 0; idx < grid.num_vertices(); ++idx) {
    char b = grid.is_blocked(idx) ? 1 : 0;
    b |= grid.is_pin(idx) ? 2 : 0;
    out.push_back(b);
  }
  // Edge-block section; all zeros for grid-world layouts.
  for (Vertex idx = 0; idx < grid.num_vertices(); ++idx) {
    char e = 0;
    if (edge_explicitly_blocked(grid, idx, hanan::Dir::kPosX)) e |= 1;
    if (edge_explicitly_blocked(grid, idx, hanan::Dir::kPosY)) e |= 2;
    if (edge_explicitly_blocked(grid, idx, hanan::Dir::kPosZ)) e |= 4;
    out.push_back(e);
  }
  // Congestion cost-bias section, present only when an overlay is set (the
  // extra length alone already separates biased from unbiased grids).
  if (grid.has_edge_cost_bias()) {
    for (Vertex idx = 0; idx < grid.num_vertices(); ++idx) {
      append_f64(out, grid.edge_cost_bias(idx, hanan::Dir::kPosX));
      append_f64(out, grid.edge_cost_bias(idx, hanan::Dir::kPosY));
      append_f64(out, grid.edge_cost_bias(idx, hanan::Dir::kPosZ));
    }
  }
  return out;
}

bool has_edge_blocks(const HananGrid& grid) {
  for (Vertex idx = 0; idx < grid.num_vertices(); ++idx) {
    if (edge_explicitly_blocked(grid, idx, hanan::Dir::kPosX) ||
        edge_explicitly_blocked(grid, idx, hanan::Dir::kPosY) ||
        edge_explicitly_blocked(grid, idx, hanan::Dir::kPosZ)) {
      return true;
    }
  }
  return false;
}

CanonicalForm canonicalize(const HananGrid& grid) {
  CanonicalForm form;
  if (has_edge_blocks(grid) || grid.has_edge_cost_bias()) {
    form.key = serialize_grid(grid);
    form.spec = rl::AugmentSpec{};
    form.symmetric = false;
    return form;
  }
  std::string vertex_bytes(std::size_t(grid.num_vertices()), '\0');
  for (Vertex idx = 0; idx < grid.num_vertices(); ++idx) {
    char b = grid.is_blocked(idx) ? 1 : 0;
    b |= grid.is_pin(idx) ? 2 : 0;
    vertex_bytes[std::size_t(idx)] = b;
  }
  std::string key;
  for (const rl::AugmentSpec& spec : rl::all_augmentations()) {
    serialize_transformed(grid, spec, vertex_bytes, key);
    if (form.key.empty() || key < form.key) {
      form.key = key;
      form.spec = spec;
    }
  }
  form.symmetric = true;
  return form;
}

std::vector<Vertex> inverse_vertex_map(const HananGrid& grid,
                                       const rl::AugmentSpec& spec) {
  std::vector<Vertex> inv(std::size_t(grid.num_vertices()), hanan::kInvalidVertex);
  for (Vertex v = 0; v < grid.num_vertices(); ++v) {
    inv[std::size_t(rl::transform_vertex(grid, v, spec))] = v;
  }
  return inv;
}

}  // namespace oar::experience
