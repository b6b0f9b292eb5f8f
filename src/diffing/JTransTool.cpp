//===- diffing/JTransTool.cpp - jTrans-style transformer analogue ----------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// jTrans (Wang et al., ISSTA'22) analogue: a BERT-style transformer whose
/// signature trick is *jump-target awareness* — the embedding of a jump
/// operand is tied to the positional embedding of its target instruction,
/// so the model sees where control transfers land, not just that a jump
/// exists. The deterministic stand-in reduces the model's two levers to
/// pure functions over the Embedding infrastructure:
///
///   * positional encodings  -> coarse relative-position buckets folded
///     into the token vocabulary (positionBucket), including a dedicated
///     jump-target vocabulary: each terminator contributes tokens pairing
///     its branch opcode with the position bucket of every successor
///     block's first instruction;
///   * self-attention pooling -> a softmax over each token's dot product
///     with the function's mean token vector (softmaxWeights), so tokens
///     that agree with the function's overall signature dominate the
///     pooled embedding the way high-attention tokens dominate [CLS].
///
/// Sequence models survive intra-procedural shuffling well (relative
/// buckets barely move) but lose the thread when fission/fusion splits or
/// concatenates token streams — both the mean-vector query and the size
/// affinity shift, which is the degradation Table 1's learned-tool rows
/// measure.
///
//===----------------------------------------------------------------------===//

#include "diffing/DiffTool.h"
#include "diffing/Embedding.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cmath>

using namespace khaos;

namespace {

/// Token-vocabulary namespaces. Disjoint offsets keep the class, raw,
/// positional and jump-target vocabularies from colliding in tokenVector's
/// hash space.
constexpr uint64_t ClassVocab = 100;
constexpr uint64_t PositionVocab = 0x3000;
constexpr uint64_t JumpVocab = 0x4000;

class JTransTool : public DiffTool {
public:
  const char *getName() const override { return "jtrans"; }
  ToolTraits getTraits() const override {
    ToolTraits T;
    T.TimeConsuming = true; // Transformer inference (Table-1 "time" column).
    return T;
  }
  DiffResult diff(const BinaryImage &A, const ImageFeatures &FA,
                  const BinaryImage &B,
                  const ImageFeatures &FB) const override;

private:
  static std::vector<double> embed(const MFunction &MF,
                                   const FunctionFeatures &FF);
};

std::vector<double> JTransTool::embed(const MFunction &MF,
                                      const FunctionFeatures &FF) {
  const size_t N = FF.TokenSeq.size();

  // Attention pass 1: per-token vectors (pointers into tokenVector's
  // per-thread memo) and their mean — the stand-in for the [CLS] query.
  std::vector<const TokenVec *> TokVecs(N);
  TokenVec Query{};
  for (size_t I = 0; I != N; ++I) {
    TokVecs[I] = &tokenVector(FF.TokenSeq[I]);
    for (unsigned K = 0; K != EmbeddingDim; ++K)
      Query[K] += (*TokVecs[I])[K];
  }
  if (N > 0)
    for (double &Q : Query)
      Q /= (double)N; // Mean token vector: length-independent query.
  // Attention pass 2: softmax over query/token dot products. Token vectors
  // are unit-norm, so scores live in [-1, 1]; the temperature keeps the
  // pooling soft enough that no single opcode class monopolizes the
  // embedding while still favouring the function's signature tokens.
  std::vector<double> Scores(N, 0.0);
  for (size_t I = 0; I != N; ++I)
    Scores[I] = dotProduct(Query, *TokVecs[I]);
  std::vector<double> Attn = softmaxWeights(Scores, /*Temperature=*/0.25);
  // Rescale to sum N: appendSegment normalizes per segment, but the call
  // boost below must stay comparable across function sizes.
  for (double &W : Attn)
    W *= (double)N;

  std::vector<double> Classes(EmbeddingDim, 0.0);
  std::vector<double> Raw(EmbeddingDim, 0.0);
  std::vector<double> Positional(EmbeddingDim, 0.0);
  for (size_t I = 0; I != N; ++I) {
    double W = Attn[I];
    MOp Op = (MOp)FF.TokenSeq[I];
    if (Op == MOp::Call || Op == MOp::CallIndirect)
      W *= 2.0; // Call sites anchor the sequence, as in the SAFE surrogate.
    unsigned Class = robustTokenClass(FF.TokenSeq[I]);
    accumulateToken(Classes, ClassVocab + Class, W);
    accumulateToken(Raw, FF.TokenSeq[I], W);
    // Position-aware vocabulary: class tokens paired with their coarse
    // relative bucket. Bogus/substituted instructions shift buckets only
    // near boundaries; relocation to another function reshuffles them all.
    accumulateToken(Positional,
                    bigramToken(PositionVocab + Class, positionBucket(I, N)),
                    0.8 * W);
  }

  // Jump-target-aware vocabulary: each block terminator that transfers
  // control contributes a token pairing the branch opcode with the
  // *target's* position bucket — the analogue of jTrans sharing parameters
  // between jump operands and target positional embeddings.
  std::vector<double> Jumps(EmbeddingDim, 0.0);
  std::vector<size_t> BlockStart(MF.Blocks.size() + 1, 0);
  for (size_t BI = 0; BI != MF.Blocks.size(); ++BI)
    BlockStart[BI + 1] = BlockStart[BI] + MF.Blocks[BI].Insts.size();
  for (size_t BI = 0; BI != MF.Blocks.size(); ++BI) {
    const MBlock &B = MF.Blocks[BI];
    if (B.Insts.empty())
      continue;
    MOp Term = B.Insts.back().Op;
    if (Term != MOp::Jmp && Term != MOp::Jcc)
      continue;
    for (uint32_t S : B.Succs)
      if (S < MF.Blocks.size())
        accumulateToken(Jumps,
                        bigramToken(JumpVocab + (uint64_t)Term,
                                    positionBucket(BlockStart[S], N)));
  }

  // Distinctive constants, as in the other learned-model surrogates.
  std::vector<double> Imms(EmbeddingDim, 0.0);
  for (int64_t V : FF.Immediates)
    accumulateToken(Imms, 0x1000000ull + static_cast<uint64_t>(V));

  std::vector<double> Out;
  appendSegment(Out, std::move(Classes), 1.0);
  appendSegment(Out, std::move(Raw), 0.4);
  appendSegment(Out, std::move(Positional), 0.5);
  appendSegment(Out, std::move(Jumps), 0.6);
  appendSegment(Out, std::move(Imms), 0.7);
  return Out;
}

DiffResult JTransTool::diff(const BinaryImage &A, const ImageFeatures &FA,
                            const BinaryImage &B,
                            const ImageFeatures &FB) const {
  DiffResult R;
  size_t NA = FA.Funcs.size(), NB = FB.Funcs.size();
  R.Rankings.resize(NA);

  std::vector<std::vector<double>> EA(NA), EB(NB);
  for (size_t I = 0; I != NA; ++I)
    EA[I] = embed(A.Functions[I], FA.Funcs[I]);
  for (size_t J = 0; J != NB; ++J)
    EB[J] = embed(B.Functions[J], FB.Funcs[J]);

  double TopSum = 0.0;
  for (size_t I = 0; I != NA; ++I) {
    std::vector<double> Sim(NB);
    for (size_t J = 0; J != NB; ++J)
      // A sequence model is CFG-agnostic, so the discount is the token
      // *length* mismatch, not the CFG shape: fission halves and fusion
      // doubles the stream, which is exactly where jTrans loses recall.
      Sim[J] = cosineSimilarity(EA[I], EB[J]) *
               std::pow(sizeAffinity(FA.Funcs[I].NumInsts + 1.0,
                                     FB.Funcs[J].NumInsts + 1.0),
                        0.75);
    std::vector<uint32_t> Order(NB);
    for (size_t J = 0; J != NB; ++J)
      Order[J] = static_cast<uint32_t>(J);
    std::stable_sort(Order.begin(), Order.end(),
                     [&](uint32_t X, uint32_t Y) { return Sim[X] > Sim[Y]; });
    if (!Order.empty())
      TopSum += std::max(Sim[Order.front()], 0.0);
    R.Rankings[I] = std::move(Order);
  }
  R.WholeBinarySimilarity = NA ? TopSum / NA : 0.0;
  return R;
}

} // namespace

std::unique_ptr<DiffTool> khaos::createJTransTool() {
  return std::make_unique<JTransTool>();
}
