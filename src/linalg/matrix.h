// Dense dynamically-sized matrix of doubles.
//
// This is the numeric workhorse of the repository. Control plants in the
// paper are at most 4x4 (3 states + 1 held input), so a straightforward
// row-major dense representation is both adequate and easy to audit.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

#include "support/codec.h"

namespace ttdim::linalg {

/// Index type used throughout the library. Signed, per ES.100/ES.102 advice
/// to avoid unsigned wraparound bugs in subscript arithmetic.
using Index = std::ptrdiff_t;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix, zero-initialised.
  Matrix(Index rows, Index cols);

  /// rows x cols matrix filled with `value`.
  Matrix(Index rows, Index cols, double value);

  /// Construct from nested braces: Matrix{{1,2},{3,4}}. All rows must have
  /// equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(Index n);
  [[nodiscard]] static Matrix zero(Index rows, Index cols);
  /// Column vector from values.
  [[nodiscard]] static Matrix column(std::initializer_list<double> values);
  [[nodiscard]] static Matrix column(const std::vector<double>& values);
  /// Row vector from values.
  [[nodiscard]] static Matrix row(std::initializer_list<double> values);
  [[nodiscard]] static Matrix row(const std::vector<double>& values);

  [[nodiscard]] Index rows() const noexcept { return rows_; }
  [[nodiscard]] Index cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }
  [[nodiscard]] bool is_square() const noexcept { return rows_ == cols_; }
  /// True for 1-column or 1-row matrices.
  [[nodiscard]] bool is_vector() const noexcept {
    return rows_ == 1 || cols_ == 1;
  }
  /// Number of entries.
  [[nodiscard]] Index size() const noexcept { return rows_ * cols_; }

  [[nodiscard]] double& operator()(Index r, Index c);
  [[nodiscard]] double operator()(Index r, Index c) const;
  /// Linear access for vectors (either orientation).
  [[nodiscard]] double& operator[](Index i);
  [[nodiscard]] double operator[](Index i) const;

  [[nodiscard]] Matrix transpose() const;
  /// Rows [r0, r0+nr) x cols [c0, c0+nc) submatrix copy.
  [[nodiscard]] Matrix block(Index r0, Index c0, Index nr, Index nc) const;
  /// Copy of row r as a 1 x cols matrix.
  [[nodiscard]] Matrix row_at(Index r) const;
  /// Writes `m` into this matrix with top-left corner at (r0, c0).
  void set_block(Index r0, Index c0, const Matrix& m);

  /// Stack [this; below] vertically. Column counts must match.
  [[nodiscard]] Matrix vstack(const Matrix& below) const;
  /// Concatenate [this, right] horizontally. Row counts must match.
  [[nodiscard]] Matrix hstack(const Matrix& right) const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);
  Matrix& operator/=(double s);

  [[nodiscard]] friend Matrix operator+(Matrix lhs, const Matrix& rhs) {
    lhs += rhs;
    return lhs;
  }
  [[nodiscard]] friend Matrix operator-(Matrix lhs, const Matrix& rhs) {
    lhs -= rhs;
    return lhs;
  }
  [[nodiscard]] friend Matrix operator*(Matrix lhs, double s) {
    lhs *= s;
    return lhs;
  }
  [[nodiscard]] friend Matrix operator*(double s, Matrix rhs) {
    rhs *= s;
    return rhs;
  }
  [[nodiscard]] friend Matrix operator/(Matrix lhs, double s) {
    lhs /= s;
    return lhs;
  }
  [[nodiscard]] friend Matrix operator-(const Matrix& m) { return m * -1.0; }
  friend Matrix operator*(const Matrix& lhs, const Matrix& rhs);

  /// Frobenius norm.
  [[nodiscard]] double norm() const;
  /// Max |entry|.
  [[nodiscard]] double max_abs() const;
  /// Sum of diagonal entries (square only).
  [[nodiscard]] double trace() const;
  /// Dot product; both operands must be vectors of equal length.
  [[nodiscard]] double dot(const Matrix& other) const;

  /// Entry-wise comparison within `tol` (matching shapes required).
  [[nodiscard]] bool approx_equal(const Matrix& other, double tol) const;
  /// True if every entry is finite.
  [[nodiscard]] bool all_finite() const;
  /// True if |a(i,j) - a(j,i)| <= tol for all i, j (square only).
  [[nodiscard]] bool is_symmetric(double tol = 1e-10) const;

  /// Symmetrise in place: a = (a + a')/2.
  void symmetrize();

  [[nodiscard]] const std::vector<double>& data() const noexcept {
    return data_;
  }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<double> data_;
};

std::ostream& operator<<(std::ostream& os, const Matrix& m);

/// Resident size in bytes (object header + heap payload) — byte-budget
/// accounting for caches holding matrices.
[[nodiscard]] std::size_t byte_cost(const Matrix& m);

/// Round-trip binary codec: dimensions plus the IEEE-754 bit pattern of
/// every entry in row-major order. Two matrices encode identically
/// exactly when they are bit-identical — the property content-addressed
/// cache keys need ("close enough" matrices must not share an analysis
/// result). decode returns false — leaving `m` empty — on truncated
/// input or implausible dimensions; it never throws, because disk
/// entries are untrusted.
void encode(support::codec::Encoder& enc, const Matrix& m);
[[nodiscard]] bool decode(support::codec::Decoder& dec, Matrix& m);

/// Kronecker product a (x) b.
[[nodiscard]] Matrix kron(const Matrix& a, const Matrix& b);

/// Column-stacking vectorisation vec(a).
[[nodiscard]] Matrix vec(const Matrix& a);

/// Inverse of vec: reshape a (rows*cols) x 1 vector into rows x cols,
/// column-major.
[[nodiscard]] Matrix unvec(const Matrix& v, Index rows, Index cols);

}  // namespace ttdim::linalg
