#include "linalg/matrix.h"

#include <cmath>
#include <cstdint>
#include <ostream>

#include "support/check.h"

namespace ttdim::linalg {

Matrix::Matrix(Index rows, Index cols)
    : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows * cols), 0.0) {
  TTDIM_EXPECTS(rows >= 0 && cols >= 0);
}

Matrix::Matrix(Index rows, Index cols, double value)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<size_t>(rows * cols), value) {
  TTDIM_EXPECTS(rows >= 0 && cols >= 0);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = static_cast<Index>(rows.size());
  cols_ = rows_ == 0 ? 0 : static_cast<Index>(rows.begin()->size());
  data_.reserve(static_cast<size_t>(rows_ * cols_));
  for (const auto& r : rows) {
    TTDIM_EXPECTS(static_cast<Index>(r.size()) == cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(Index n) {
  Matrix m(n, n);
  for (Index i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::zero(Index rows, Index cols) { return Matrix(rows, cols); }

Matrix Matrix::column(std::initializer_list<double> values) {
  Matrix m(static_cast<Index>(values.size()), 1);
  Index i = 0;
  for (double v : values) m(i++, 0) = v;
  return m;
}

Matrix Matrix::column(const std::vector<double>& values) {
  Matrix m(static_cast<Index>(values.size()), 1);
  for (Index i = 0; i < m.rows(); ++i) m(i, 0) = values[static_cast<size_t>(i)];
  return m;
}

Matrix Matrix::row(std::initializer_list<double> values) {
  return column(values).transpose();
}

Matrix Matrix::row(const std::vector<double>& values) {
  return column(values).transpose();
}

double& Matrix::operator()(Index r, Index c) {
  TTDIM_EXPECTS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return data_[static_cast<size_t>(r * cols_ + c)];
}

double Matrix::operator()(Index r, Index c) const {
  TTDIM_EXPECTS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return data_[static_cast<size_t>(r * cols_ + c)];
}

double& Matrix::operator[](Index i) {
  TTDIM_EXPECTS(is_vector() && i >= 0 && i < size());
  return data_[static_cast<size_t>(i)];
}

double Matrix::operator[](Index i) const {
  TTDIM_EXPECTS(is_vector() && i >= 0 && i < size());
  return data_[static_cast<size_t>(i)];
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (Index r = 0; r < rows_; ++r)
    for (Index c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::block(Index r0, Index c0, Index nr, Index nc) const {
  TTDIM_EXPECTS(r0 >= 0 && c0 >= 0 && nr >= 0 && nc >= 0);
  TTDIM_EXPECTS(r0 + nr <= rows_ && c0 + nc <= cols_);
  Matrix b(nr, nc);
  for (Index r = 0; r < nr; ++r)
    for (Index c = 0; c < nc; ++c) b(r, c) = (*this)(r0 + r, c0 + c);
  return b;
}

Matrix Matrix::row_at(Index r) const { return block(r, 0, 1, cols_); }

void Matrix::set_block(Index r0, Index c0, const Matrix& m) {
  TTDIM_EXPECTS(r0 >= 0 && c0 >= 0);
  TTDIM_EXPECTS(r0 + m.rows() <= rows_ && c0 + m.cols() <= cols_);
  for (Index r = 0; r < m.rows(); ++r)
    for (Index c = 0; c < m.cols(); ++c) (*this)(r0 + r, c0 + c) = m(r, c);
}

Matrix Matrix::vstack(const Matrix& below) const {
  TTDIM_EXPECTS(cols_ == below.cols());
  Matrix s(rows_ + below.rows(), cols_);
  s.set_block(0, 0, *this);
  s.set_block(rows_, 0, below);
  return s;
}

Matrix Matrix::hstack(const Matrix& right) const {
  TTDIM_EXPECTS(rows_ == right.rows());
  Matrix s(rows_, cols_ + right.cols());
  s.set_block(0, 0, *this);
  s.set_block(0, cols_, right);
  return s;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  TTDIM_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  TTDIM_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix& Matrix::operator/=(double s) {
  TTDIM_EXPECTS(s != 0.0);
  for (double& v : data_) v /= s;
  return *this;
}

Matrix operator*(const Matrix& lhs, const Matrix& rhs) {
  TTDIM_EXPECTS(lhs.cols() == rhs.rows());
  Matrix p(lhs.rows(), rhs.cols());
  for (Index r = 0; r < lhs.rows(); ++r) {
    for (Index k = 0; k < lhs.cols(); ++k) {
      const double a = lhs(r, k);
      if (a == 0.0) continue;
      for (Index c = 0; c < rhs.cols(); ++c) p(r, c) += a * rhs(k, c);
    }
  }
  return p;
}

double Matrix::norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

double Matrix::trace() const {
  TTDIM_EXPECTS(is_square());
  double t = 0.0;
  for (Index i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

double Matrix::dot(const Matrix& other) const {
  TTDIM_EXPECTS(is_vector() && other.is_vector() && size() == other.size());
  double s = 0.0;
  for (Index i = 0; i < size(); ++i) s += (*this)[i] * other[i];
  return s;
}

bool Matrix::approx_equal(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i)
    if (std::abs(data_[i] - other.data_[i]) > tol) return false;
  return true;
}

bool Matrix::all_finite() const {
  for (double v : data_)
    if (!std::isfinite(v)) return false;
  return true;
}

bool Matrix::is_symmetric(double tol) const {
  if (!is_square()) return false;
  for (Index r = 0; r < rows_; ++r)
    for (Index c = r + 1; c < cols_; ++c)
      if (std::abs((*this)(r, c) - (*this)(c, r)) > tol) return false;
  return true;
}

void Matrix::symmetrize() {
  TTDIM_EXPECTS(is_square());
  for (Index r = 0; r < rows_; ++r) {
    for (Index c = r + 1; c < cols_; ++c) {
      const double avg = 0.5 * ((*this)(r, c) + (*this)(c, r));
      (*this)(r, c) = avg;
      (*this)(c, r) = avg;
    }
  }
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "[";
  for (Index r = 0; r < m.rows(); ++r) {
    if (r > 0) os << "; ";
    for (Index c = 0; c < m.cols(); ++c) {
      if (c > 0) os << ", ";
      os << m(r, c);
    }
  }
  return os << "]";
}

Matrix kron(const Matrix& a, const Matrix& b) {
  Matrix k(a.rows() * b.rows(), a.cols() * b.cols());
  for (Index ar = 0; ar < a.rows(); ++ar)
    for (Index ac = 0; ac < a.cols(); ++ac) {
      const double s = a(ar, ac);
      if (s == 0.0) continue;
      for (Index br = 0; br < b.rows(); ++br)
        for (Index bc = 0; bc < b.cols(); ++bc)
          k(ar * b.rows() + br, ac * b.cols() + bc) = s * b(br, bc);
    }
  return k;
}

Matrix vec(const Matrix& a) {
  Matrix v(a.rows() * a.cols(), 1);
  Index i = 0;
  for (Index c = 0; c < a.cols(); ++c)
    for (Index r = 0; r < a.rows(); ++r) v(i++, 0) = a(r, c);
  return v;
}

Matrix unvec(const Matrix& v, Index rows, Index cols) {
  TTDIM_EXPECTS(v.is_vector() && v.size() == rows * cols);
  Matrix a(rows, cols);
  Index i = 0;
  for (Index c = 0; c < cols; ++c)
    for (Index r = 0; r < rows; ++r) a(r, c) = v[i++];
  return a;
}

std::size_t byte_cost(const Matrix& m) {
  return sizeof(Matrix) + static_cast<std::size_t>(m.size()) * sizeof(double);
}

void encode(support::codec::Encoder& enc, const Matrix& m) {
  enc.u32(static_cast<std::uint32_t>(m.rows()));
  enc.u32(static_cast<std::uint32_t>(m.cols()));
  for (double entry : m.data()) enc.f64(entry);
}

bool decode(support::codec::Decoder& dec, Matrix& m) {
  m = Matrix{};
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  if (!dec.u32(rows) || !dec.u32(cols)) return false;
  // Plants are at most a few states; 1024 is absurdly generous, and the
  // remaining-bytes check stops a corrupt header from driving a large
  // allocation before the entry checksum would have caught it.
  constexpr std::uint32_t kMaxDim = 1024;
  if (rows > kMaxDim || cols > kMaxDim) return false;
  const std::size_t entries =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  if (entries * sizeof(double) > dec.remaining()) return false;
  Matrix out(static_cast<Index>(rows), static_cast<Index>(cols));
  for (Index r = 0; r < out.rows(); ++r)
    for (Index c = 0; c < out.cols(); ++c)
      if (!dec.f64(out(r, c))) return false;
  m = std::move(out);
  return true;
}

}  // namespace ttdim::linalg
