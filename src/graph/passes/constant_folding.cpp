/**
 * @file
 * Structural constant folding.
 *
 * Orpheus folds the constant subgraph shapes that exporters actually
 * emit around weights, without pulling the kernel library into the graph
 * layer:
 *
 *  - Constant nodes become initializers.
 *  - Reshape/Flatten of an initializer becomes a reshaped initializer,
 *    sharing the source's storage when the node was its only reader
 *    (Graph::take_writable_initializer).
 *
 * Arithmetic over constants (rare in inference graphs once BN folding
 * has run) is intentionally left to the runtime.
 */
#include "graph/passes/pass.hpp"

#include "graph/op_params.hpp"

namespace orpheus {

namespace {

class ConstantFoldingPass : public GraphPass
{
  public:
    const char *name() const override { return "constant-folding"; }

    bool
    run(Graph &graph) override
    {
        std::vector<std::size_t> doomed;
        for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
            const Node &node = graph.nodes()[i];
            if (node.op_type() == op_names::kConstant) {
                fold_constant(graph, node);
                doomed.push_back(i);
            } else if (node.op_type() == op_names::kReshape &&
                       can_fold_reshape(graph, node)) {
                fold_reshape(graph, node);
                doomed.push_back(i);
            } else if (node.op_type() == op_names::kFlatten &&
                       graph.has_initializer(node.input(0))) {
                fold_flatten(graph, node);
                doomed.push_back(i);
            }
        }
        graph.remove_nodes(doomed);
        return !doomed.empty();
    }

  private:
    static void
    fold_constant(Graph &graph, const Node &node)
    {
        graph.add_initializer(node.output(0),
                              node.attrs().at("value").as_tensor().clone());
    }

    static bool
    can_fold_reshape(const Graph &graph, const Node &node)
    {
        return graph.has_initializer(node.input(0)) &&
               graph.has_initializer(node.input(1));
    }

    static void
    fold_reshape(Graph &graph, const Node &node)
    {
        const Shape &data_shape = graph.initializer(node.input(0)).shape();
        const Tensor &spec = graph.initializer(node.input(1));
        Shape target;
        resolve_reshape(node.name(), data_shape, spec.data<std::int64_t>(),
                        static_cast<std::size_t>(spec.numel()), target)
            .throw_if_error();
        graph.add_initializer(
            node.output(0), graph.take_writable_initializer(node.input(0))
                                .reshape(std::move(target)));
    }

    static void
    fold_flatten(Graph &graph, const Node &node)
    {
        const Shape &data_shape = graph.initializer(node.input(0)).shape();
        const int axis =
            static_cast<int>(node.attrs().get_int("axis", 1));
        Shape::dim_type rows = 1, cols = 1;
        for (int d = 0; d < static_cast<int>(data_shape.rank()); ++d) {
            if (d < axis)
                rows *= data_shape.dim(d);
            else
                cols *= data_shape.dim(d);
        }
        graph.add_initializer(
            node.output(0), graph.take_writable_initializer(node.input(0))
                                .reshape(Shape({rows, cols})));
    }
};

} // namespace

std::unique_ptr<GraphPass>
make_constant_folding_pass()
{
    return std::make_unique<ConstantFoldingPass>();
}

} // namespace orpheus
