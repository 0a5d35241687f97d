/**
 * @file
 * Workload IR tests: tensors, operators, workload DAG queries, the
 * builders and the Table 2/3 shape registries.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "ir/builders.hpp"
#include "ir/shapes.hpp"
#include "oracle/fuzz.hpp"

namespace tileflow {

/**
 * Prints an attention shape by name. Without it gtest dumps the raw
 * object bytes, whose std::string data pointer changes with every run,
 * so the parameterised test names ctest lists would not be stable.
 */
void PrintTo(const AttentionShape& shape, std::ostream* os)
{
    *os << shape.name;
}

namespace {

TEST(Tensor, SizeAndBytes)
{
    Tensor t{"X", {4, 8, 2}, DataType::Fp16};
    EXPECT_EQ(t.numElements(), 64);
    EXPECT_EQ(t.sizeBytes(), 128);
    EXPECT_EQ(t.rank(), 3u);
}

TEST(Tensor, DataTypeBytes)
{
    EXPECT_EQ(dataTypeBytes(DataType::Int8), 1);
    EXPECT_EQ(dataTypeBytes(DataType::Fp16), 2);
    EXPECT_EQ(dataTypeBytes(DataType::Fp32), 4);
    EXPECT_EQ(dataTypeName(DataType::Fp16), "fp16");
}

TEST(Operator, DimBookkeeping)
{
    const Workload w = buildMatmul("mm", 8, 8, 8);
    const Operator& op = w.op(0);
    EXPECT_EQ(op.dims().size(), 3u);
    EXPECT_EQ(op.reductionDims().size(), 1u);
    EXPECT_TRUE(op.isReduction(w.dimId("k")));
    EXPECT_FALSE(op.isReduction(w.dimId("i")));
    EXPECT_TRUE(op.usesDim(w.dimId("j")));
}

TEST(Operator, InputOutputTensors)
{
    const Workload w = buildMatmul("mm", 8, 8, 8);
    const Operator& op = w.op(0);
    EXPECT_EQ(op.inputTensors().size(), 2u);
    ASSERT_EQ(op.outputTensors().size(), 1u);
    EXPECT_EQ(w.tensor(op.outputTensors()[0]).name, "C");
}

TEST(Operator, SliceOfSimpleProjection)
{
    const Workload w = buildMatmul("mm", 16, 16, 16);
    const Operator& op = w.op(0);
    // A[i, k] with i in [4, 4+8), k in [0, 16).
    std::vector<int64_t> base(3, 0), span(3, 1);
    base[size_t(w.dimId("i"))] = 4;
    span[size_t(w.dimId("i"))] = 8;
    span[size_t(w.dimId("k"))] = 16;
    const HyperRect slice = op.sliceOf(op.accesses()[0], base, span);
    EXPECT_EQ(slice.begin(0), 4);
    EXPECT_EQ(slice.end(0), 12);
    EXPECT_EQ(slice.volume(), 8 * 16);
}

TEST(Operator, SliceOfHaloProjection)
{
    // Fig. 5's A[i, j + k]: two dims contribute to column addresses.
    const Workload w = buildFig5Conv1d();
    const Operator& op = w.op(0);
    std::vector<int64_t> base(3, 0), span(3, 1);
    span[size_t(w.dimId("i"))] = 4;
    span[size_t(w.dimId("j"))] = 4;
    span[size_t(w.dimId("k"))] = 3;
    const HyperRect a = op.sliceOf(op.accesses()[0], base, span);
    EXPECT_EQ(a.extent(1), 4 + 3 - 1); // halo widens the slice
    EXPECT_EQ(a.volume(), 4 * 6);
}

TEST(Operator, PointerAndVectorSliceOfAgreeOnEveryFuzzFamily)
{
    std::set<int> families;
    Rng rng(0x511CE);
    for (uint64_t index = 0; index < 40; ++index) {
        const FuzzCase fc = makeFuzzCase(0x511CE, index);
        families.insert(fc.kind);
        const Workload& w = *fc.workload;
        for (const Tensor& tensor : w.tensors())
            EXPECT_LE(tensor.rank(), 4u) << fc.summary;
        std::vector<int64_t> base(w.dims().size());
        std::vector<int64_t> span(w.dims().size());
        for (int draw = 0; draw < 8; ++draw) {
            for (size_t d = 0; d < base.size(); ++d) {
                base[d] = rng.uniformInt(0, w.dims()[d].extent - 1);
                span[d] = rng.uniformInt(0, w.dims()[d].extent);
            }
            for (const Operator& op : w.ops()) {
                for (const TensorAccess& access : op.accesses()) {
                    const HyperRect a = op.sliceOf(access, base, span);
                    const HyperRect b =
                        op.sliceOf(access, base.data(), span.data());
                    ASSERT_EQ(a.rank(), access.projection.size());
                    ASSERT_EQ(b.rank(), access.projection.size());
                    // Reference: the affine image of the index box.
                    for (size_t d = 0; d < a.rank(); ++d) {
                        int64_t lo = 0;
                        int64_t hi = 0;
                        for (const AccessTerm& t : access.projection[d]) {
                            const size_t v = size_t(t.dim);
                            lo += t.coeff * base[v];
                            hi += t.coeff *
                                  (base[v] + std::max<int64_t>(span[v], 1));
                            hi -= t.coeff;
                        }
                        EXPECT_EQ(a.begin(d), lo);
                        EXPECT_EQ(a.end(d), hi + 1);
                        EXPECT_EQ(b.begin(d), lo);
                        EXPECT_EQ(b.end(d), hi + 1);
                    }
                }
            }
        }
    }
    EXPECT_EQ(families.size(), 7u);
}

TEST(Workload, TensorRankAboveMaxRankRejected)
{
    Workload w("wide");
    EXPECT_NO_THROW(
        w.addTensor(Tensor{"ok", std::vector<int64_t>(kMaxRank, 2)}));
    EXPECT_THROW(
        w.addTensor(Tensor{"wide", std::vector<int64_t>(kMaxRank + 1, 2)}),
        FatalError);
    EXPECT_EQ(w.tensors().size(), 1u);
}

TEST(Workload, DuplicateDimNameRejected)
{
    Workload w("dup");
    w.addDim("i", 4);
    EXPECT_THROW(w.addDim("i", 8), FatalError);
}

TEST(Workload, UnknownLookupsFatal)
{
    const Workload w = buildMatmul("mm", 4, 4, 4);
    EXPECT_THROW(w.dimId("zz"), FatalError);
    EXPECT_THROW(w.tensorId("zz"), FatalError);
    EXPECT_THROW(w.opId("zz"), FatalError);
}

TEST(Workload, ProducerConsumerTopology)
{
    const Workload w = buildMatmulExp("me", 8, 8, 8);
    const TensorId c = w.tensorId("C");
    EXPECT_EQ(w.producerOf(c), w.opId("matmul"));
    ASSERT_EQ(w.consumersOf(c).size(), 1u);
    EXPECT_EQ(w.consumersOf(c)[0], w.opId("exp"));
    EXPECT_TRUE(w.isIntermediate(c));
    EXPECT_FALSE(w.isIntermediate(w.tensorId("A")));
    EXPECT_FALSE(w.isIntermediate(w.tensorId("E")));

    // square: Y = X * X (reads X twice); add: Z = Y + X; acc: Z += Y.
    // X has two consumers and `square` is listed once; Z has two
    // writers and the first one is its producer.
    Workload sq("sq");
    const DimId i = sq.addDim("i", 8);
    const TensorId x = sq.addTensor(Tensor{"X", {8}});
    const TensorId y = sq.addTensor(Tensor{"Y", {8}});
    const TensorId z = sq.addTensor(Tensor{"Z", {8}});
    auto access = [&](TensorId t, bool is_write) {
        return TensorAccess{t, is_write, false, {{AccessTerm{i, 1}}}};
    };
    Operator square("square", ComputeKind::Vector);
    square.addDim(i, false);
    square.addAccess(access(x, false));
    square.addAccess(access(x, false));
    square.addAccess(access(y, true));
    const OpId square_id = sq.addOp(std::move(square));
    Operator add("add", ComputeKind::Vector);
    add.addDim(i, false);
    add.addAccess(access(y, false));
    add.addAccess(access(x, false));
    add.addAccess(access(z, true));
    const OpId add_id = sq.addOp(std::move(add));
    Operator acc("acc", ComputeKind::Vector);
    acc.addDim(i, false);
    acc.addAccess(access(y, false));
    acc.addAccess(access(z, true));
    const OpId acc_id = sq.addOp(std::move(acc));

    EXPECT_EQ(sq.consumersOf(x), (std::vector<OpId>{square_id, add_id}));
    EXPECT_EQ(sq.consumersOf(y), (std::vector<OpId>{add_id, acc_id}));
    EXPECT_TRUE(sq.consumersOf(z).empty());
    EXPECT_EQ(sq.producerOf(x), -1);
    EXPECT_EQ(sq.producerOf(y), square_id);
    EXPECT_EQ(sq.producerOf(z), add_id);
    EXPECT_FALSE(sq.isIntermediate(x));
    EXPECT_TRUE(sq.isIntermediate(y));
    EXPECT_FALSE(sq.isIntermediate(z));
    EXPECT_EQ(sq.inputTensors(), (std::vector<TensorId>{x}));
    EXPECT_EQ(sq.outputTensors(), (std::vector<TensorId>{z}));
}

TEST(Workload, InputsAndOutputs)
{
    const Workload w = buildMatmulExp("me", 8, 8, 8);
    const auto inputs = w.inputTensors();
    const auto outputs = w.outputTensors();
    EXPECT_EQ(inputs.size(), 2u);  // A, B
    ASSERT_EQ(outputs.size(), 1u); // E
    EXPECT_EQ(w.tensor(outputs[0]).name, "E");
}

TEST(Workload, TotalOpsMatmul)
{
    const Workload w = buildMatmul("mm", 8, 16, 32);
    EXPECT_DOUBLE_EQ(w.totalOps(), 8.0 * 16.0 * 32.0);
}

TEST(Builders, AttentionCompactHasThreeOps)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    EXPECT_EQ(w.numOps(), 3u);
    EXPECT_EQ(w.op(0).name(), "QK");
    EXPECT_EQ(w.op(2).name(), "LV");
    EXPECT_TRUE(w.isIntermediate(w.tensorId("S")));
    EXPECT_TRUE(w.isIntermediate(w.tensorId("L")));
}

TEST(Builders, AttentionExpandedHasSevenOps)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), true);
    EXPECT_EQ(w.numOps(), 7u); // QK, max, sub, exp, sum, div, LV
    EXPECT_EQ(w.op(1).name(), "max");
    EXPECT_EQ(w.op(5).name(), "div");
    EXPECT_TRUE(w.op(1).isReduction(w.dimId("l")));
    EXPECT_FALSE(w.op(3).isReduction(w.dimId("l"))); // exp elementwise
}

TEST(Builders, AttentionOpCounts)
{
    const AttentionShape& shape = attentionShape("Bert-S");
    const Workload w = buildAttention(shape, false);
    // QK and LV each do heads * seq^2 * head_dim MACs.
    const double mm = double(shape.numHeads) * shape.seqLen *
                      shape.seqLen * shape.headDim();
    const Workload we = buildAttention(shape, true);
    EXPECT_GE(w.totalOps(), 2.0 * mm);
    EXPECT_GE(we.totalOps(), 2.0 * mm);
}

TEST(Builders, AttentionRejectsIndivisibleHidden)
{
    AttentionShape bad;
    bad.numHeads = 7;
    bad.hidden = 512;
    EXPECT_THROW(buildAttention(bad), FatalError);
}

TEST(Builders, ConvChainTopology)
{
    const Workload w = buildConvChain(convChainShape("CC1"));
    EXPECT_EQ(w.numOps(), 2u);
    EXPECT_TRUE(w.isIntermediate(w.tensorId("Act")));
    // Act is padded for the 3x3 halo of conv2.
    const Tensor& act = w.tensor(w.tensorId("Act"));
    EXPECT_EQ(act.shape[0], 112 + 2);
    EXPECT_EQ(act.shape[2], 192);
}

TEST(Builders, ConvChainReductions)
{
    const Workload w = buildConvChain(convChainShape("CC3"));
    const Operator& conv2 = w.op(w.opId("conv2"));
    EXPECT_TRUE(conv2.isReduction(w.dimId("l")));
    EXPECT_TRUE(conv2.isReduction(w.dimId("u")));
    EXPECT_FALSE(conv2.isReduction(w.dimId("k2")));
}

TEST(Shapes, TableTwoComplete)
{
    EXPECT_EQ(attentionShapes().size(), 11u);
    const AttentionShape& t5 = attentionShape("T5");
    EXPECT_EQ(t5.seqLen, 1024);
    EXPECT_EQ(t5.hidden, 1024);
    EXPECT_EQ(t5.headDim(), 64);
    EXPECT_THROW(attentionShape("nope"), FatalError);
}

TEST(Shapes, TableThreeComplete)
{
    EXPECT_EQ(convChainShapes().size(), 5u);
    const ConvChainShape& cc5 = convChainShape("CC5");
    EXPECT_EQ(cc5.height, 227);
    EXPECT_EQ(cc5.outC2, 16);
    EXPECT_THROW(convChainShape("CC9"), FatalError);
}

/** Every registered attention shape builds a consistent workload. */
class AttentionShapeParam
    : public ::testing::TestWithParam<AttentionShape>
{
};

TEST_P(AttentionShapeParam, BuildsConsistentWorkload)
{
    const Workload w = buildAttention(GetParam(), true);
    EXPECT_EQ(w.numOps(), 7u);
    // Every op's accesses reference registered tensors with matching
    // rank; addOp would have thrown otherwise. Check DAG order: every
    // read tensor is a pure input or produced by an earlier op.
    for (size_t i = 0; i < w.numOps(); ++i) {
        for (const auto& access : w.op(OpId(i)).accesses()) {
            if (access.isWrite)
                continue;
            const OpId producer = w.producerOf(access.tensor);
            EXPECT_LT(producer, OpId(i));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table2, AttentionShapeParam,
    ::testing::ValuesIn(attentionShapes()),
    [](const ::testing::TestParamInfo<AttentionShape>& info) {
        std::string name = info.param.name;
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace tileflow
