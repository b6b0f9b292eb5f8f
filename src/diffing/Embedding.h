//===- diffing/Embedding.h - Deterministic token embeddings -----*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-based stand-in for the learned token embeddings of
/// Asm2Vec/SAFE/DeepBinDiff: every token id maps to a fixed
/// pseudo-random unit vector, so cosine similarity between aggregated
/// vectors behaves like the published models' representation distance —
/// near-identical code maps to near-identical vectors, and similarity
/// degrades smoothly with edit distance of the token stream.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_DIFFING_EMBEDDING_H
#define KHAOS_DIFFING_EMBEDDING_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace khaos {

constexpr unsigned EmbeddingDim = 32;

/// One token's embedding.
using TokenVec = std::array<double, EmbeddingDim>;

/// Deterministic pseudo-random unit vector for a token id. Memoized per
/// thread (a thread_local map, no lock): each thread computes a token's
/// vector once, bit-identical on every thread, since it is a pure
/// function of Token. The reference stays valid until the calling thread
/// exits: later calls never move a stored vector. The memo is never
/// trimmed; it grows with every distinct token, immediates included.
const TokenVec &tokenVector(uint64_t Token);

/// Adds Scale * tokenVector(Token) into \p Acc.
void accumulateToken(std::vector<double> &Acc, uint64_t Token,
                     double Scale = 1.0);

/// Combines two token ids into a bigram token.
uint64_t bigramToken(uint64_t A, uint64_t B);

/// L2-normalizes \p Segment and appends Weight * Segment to \p Out.
/// Embeddings built from several segments give each feature family a
/// controlled share of the cosine similarity.
void appendSegment(std::vector<double> &Out, std::vector<double> Segment,
                   double Weight);

/// Similarity discount for mismatched function sizes (harmonic ratio).
/// Intra-procedural obfuscation keeps sizes comparable; fission shrinks
/// the remFunc and fusion doubles the fusFunc, which is precisely the
/// signal the published models lose accuracy to.
double sizeAffinity(double SizeA, double SizeB);

//===----------------------------------------------------------------------===//
// Position-aware attention helpers (the jTrans-style analogue). A
// transformer's two levers — positional encodings and attention pooling —
// reduce, in this deterministic stand-in, to coarse position buckets
// folded into the token vocabulary and a softmax over token/summary dot
// products. Everything is a pure function of its inputs.
//===----------------------------------------------------------------------===//

/// Number of coarse relative-position buckets in the position-aware
/// vocabularies (jump-target tokens, positional bigrams).
constexpr unsigned NumPositionBuckets = 16;

/// Coarse relative position of element \p Index in a sequence of
/// \p Total, in [0, NumPositionBuckets). Relative (not absolute) so that
/// uniformly inserted instructions — substitution, bogus blocks — shift
/// buckets only near bucket boundaries.
unsigned positionBucket(size_t Index, size_t Total);

/// Dot product of two token-space vectors (raw attention score).
double dotProduct(const TokenVec &A, const TokenVec &B);

/// Numerically stable softmax of \p Scores at temperature \p Temperature
/// (> 0; lower = sharper). Returns weights summing to 1; empty input
/// yields an empty vector.
std::vector<double> softmaxWeights(const std::vector<double> &Scores,
                                   double Temperature);

} // namespace khaos

#endif // KHAOS_DIFFING_EMBEDDING_H
