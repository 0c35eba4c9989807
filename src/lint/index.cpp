#include "lint/index.h"

#include <algorithm>
#include <cctype>

#include "lint/text.h"

namespace tamper::lint {

namespace {

using internal::find_word;
using internal::ident_char;
using internal::line_of;
using internal::trimmed;

[[nodiscard]] std::size_t skip_spaces(std::string_view text, std::size_t p) {
  while (p < text.size() && (text[p] == ' ' || text[p] == '\t' || text[p] == '\n'))
    ++p;
  return p;
}

[[nodiscard]] std::string read_ident(std::string_view text, std::size_t p) {
  std::size_t e = p;
  while (e < text.size() && ident_char(text[e])) ++e;
  return std::string(text.substr(p, e - p));
}

/// Offset just past the matching closer for the opener at `p`, or npos.
[[nodiscard]] std::size_t match(std::string_view text, std::size_t p, char open,
                                char close) {
  int depth = 0;
  for (; p < text.size(); ++p) {
    if (text[p] == open) ++depth;
    else if (text[p] == close && --depth == 0) return p + 1;
  }
  return std::string_view::npos;
}

/// Lexical scopes for lock tracking. Lambda bodies are separate functions
/// whose execution is deferred, so locks held at the definition site are not
/// ordered before locks the body takes: each lambda starts a fresh context.
struct ScopeFrame {
  char kind;              ///< 'n'amespace, 'c'lass, 'l'ambda, 'b'lock
  std::string cls;        ///< enclosing class name ("" when none)
  std::size_t lock_floor; ///< index into the active-lock stack visible here
};

[[nodiscard]] bool looks_like_lambda(std::string_view stmt) {
  const std::size_t rb = stmt.rfind(']');
  if (rb == std::string_view::npos) return false;
  const std::size_t lb = stmt.rfind('[', rb);
  if (lb == std::string_view::npos) return false;
  for (std::size_t i = lb + 1; i < rb; ++i) {
    const char c = stmt[i];
    if (!(ident_char(c) || c == ' ' || c == '&' || c == '=' || c == ',' ||
          c == '.' || c == '*'))
      return false;
  }
  const std::string tail = trimmed(stmt.substr(rb + 1));
  return tail.empty() || tail[0] == '(';
}

/// Class named by a block-opening statement, or "" when it opens something
/// else. Handles `class X {`, `struct X : Base {`, attribute macros between
/// keyword and name, and out-of-line member definitions `Ret X::f(...)`.
[[nodiscard]] std::string class_of_opener(std::string_view stmt,
                                          const std::string& inherited) {
  if (find_word(stmt, "namespace") != std::string_view::npos) return "";
  const bool is_class = find_word(stmt, "class") != std::string_view::npos ||
                        find_word(stmt, "struct") != std::string_view::npos;
  if (is_class && find_word(stmt, "enum") == std::string_view::npos) {
    // Name is the last identifier before the base-clause `:` (if any).
    std::string_view head = stmt;
    for (std::size_t i = 0; i < stmt.size(); ++i) {
      if (stmt[i] == ':' && (i + 1 >= stmt.size() || stmt[i + 1] != ':') &&
          (i == 0 || stmt[i - 1] != ':')) {
        head = stmt.substr(0, i);
        break;
      }
    }
    std::string last, prev;
    for (std::size_t i = 0; i < head.size();) {
      if (ident_char(head[i])) {
        std::size_t e = i;
        while (e < head.size() && ident_char(head[e])) ++e;
        prev = last;
        last = std::string(head.substr(i, e - i));
        i = e;
      } else {
        ++i;
      }
    }
    if (last == "final") last = prev;
    if (!last.empty() && !(last[0] >= '0' && last[0] <= '9')) return last;
    return inherited;
  }
  // Out-of-line member definition: `... Class::method(...)`.
  std::size_t p = 0;
  while ((p = stmt.find("::", p)) != std::string_view::npos) {
    std::size_t b = p;
    while (b > 0 && ident_char(stmt[b - 1])) --b;
    std::size_t e = p + 2;
    std::string member = read_ident(stmt, e);
    std::size_t after = skip_spaces(stmt, e + member.size());
    if (b < p && !member.empty() && after < stmt.size() && stmt[after] == '(')
      return std::string(stmt.substr(b, p - b));
    p += 2;
  }
  return inherited;
}

void extract_lock_nestings(std::string_view stripped, FileIndex& out) {
  struct ActiveLock {
    std::size_t depth;
    std::string node;
  };
  std::vector<ScopeFrame> scopes;
  std::vector<ActiveLock> locks;
  std::size_t stmt_start = 0;

  const auto current_cls = [&]() -> std::string {
    return scopes.empty() ? "" : scopes.back().cls;
  };
  const auto current_floor = [&]() -> std::size_t {
    return scopes.empty() ? 0 : scopes.back().lock_floor;
  };

  const auto scan_locks = [&](std::string_view stmt, std::size_t stmt_off) {
    for (const std::string_view kw : {"MutexLock", "UniqueLock"}) {
      std::size_t from = 0, w = 0;
      while ((w = find_word(stmt, kw, from)) != std::string_view::npos) {
        from = w + kw.size();
        std::size_t p = skip_spaces(stmt, w + kw.size());
        const std::string var = read_ident(stmt, p);
        if (var.empty()) continue;  // `MutexLock(` — a declaration, not a site
        p = skip_spaces(stmt, p + var.size());
        if (p >= stmt.size() || stmt[p] != '(') continue;
        const std::size_t close = match(stmt, p, '(', ')');
        if (close == std::string_view::npos) continue;
        const std::string expr = trimmed(stmt.substr(p + 1, close - p - 2));
        if (expr.empty() || expr.find("Mutex") != std::string::npos) continue;
        const bool bare =
            std::all_of(expr.begin(), expr.end(), [](char c) { return ident_char(c); });
        const std::string cls = current_cls();
        const std::string node = bare && !cls.empty() ? cls + "::" + expr : expr;
        const int line = static_cast<int>(line_of(stripped, stmt_off + w) + 1);
        for (std::size_t i = current_floor(); i < locks.size(); ++i)
          out.lock_nestings.push_back({locks[i].node, node, line});
        locks.push_back({scopes.size(), node});
      }
    }
  };

  for (std::size_t i = 0; i < stripped.size(); ++i) {
    const char c = stripped[i];
    if (c == ';') {
      scan_locks(stripped.substr(stmt_start, i - stmt_start), stmt_start);
      stmt_start = i + 1;
    } else if (c == '{') {
      const std::string stmt(
          trimmed(stripped.substr(stmt_start, i - stmt_start)));
      ScopeFrame frame;
      if (looks_like_lambda(stmt)) {
        frame = {'l', current_cls(), locks.size()};
      } else if (find_word(stmt, "namespace") != std::string_view::npos) {
        frame = {'n', "", current_floor()};
      } else {
        frame = {'b', class_of_opener(stmt, current_cls()), current_floor()};
      }
      scopes.push_back(std::move(frame));
      stmt_start = i + 1;
    } else if (c == '}') {
      if (!scopes.empty()) scopes.pop_back();
      while (!locks.empty() && locks.back().depth > scopes.size()) locks.pop_back();
      stmt_start = i + 1;
    }
  }
}

[[nodiscard]] bool keyword_before_paren(const std::string& name) {
  static constexpr std::string_view kKeywords[] = {
      "if",       "for",      "while",    "switch",        "catch",
      "return",   "sizeof",   "alignof",  "alignas",       "decltype",
      "noexcept", "operator", "new",      "static_assert", "delete",
      "throw",    "typeid",   "assert",   "defined",       "co_await",
      "co_return", "co_yield", "requires"};
  return std::find(std::begin(kKeywords), std::end(kKeywords), name) !=
         std::end(kKeywords);
}

[[nodiscard]] bool type_keyword(std::string_view tok) {
  static constexpr std::string_view kTypes[] = {
      "const", "volatile", "unsigned", "signed", "int",  "long",
      "short", "char",     "bool",     "float",  "double", "void",
      "auto",  "struct",   "class",    "enum",   "typename"};
  return std::find(std::begin(kTypes), std::end(kTypes), tok) != std::end(kTypes);
}

[[nodiscard]] std::string collapse_ws(std::string_view text) {
  std::string out;
  bool in_space = false;
  for (char c : text) {
    const bool space = c == ' ' || c == '\t' || c == '\n';
    if (space) {
      in_space = true;
      continue;
    }
    if (in_space && !out.empty()) out.push_back(' ');
    in_space = false;
    out.push_back(c);
  }
  return out;
}

/// Split a parameter list on top-level commas. Tracks (), {}, [] and <>
/// depth; `<` adjacent to another `<`, `=` or after `-` is a shift/compare/
/// arrow, not a template bracket (declaration contexts make this reliable).
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> split_params(
    std::string_view body) {
  std::vector<std::pair<std::size_t, std::size_t>> parts;
  int depth = 0, angle = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= body.size(); ++i) {
    const char c = i < body.size() ? body[i] : ',';
    const char prev = i > 0 ? body[i - 1] : '\0';
    const char next = i + 1 < body.size() ? body[i + 1] : '\0';
    if (c == '(' || c == '{' || c == '[') ++depth;
    else if (c == ')' || c == '}' || c == ']') --depth;
    else if (c == '<' && prev != '<' && next != '<' && next != '=') ++angle;
    else if (c == '>' && prev != '-' && next != '=' && angle > 0) --angle;
    else if (c == ',' && depth == 0 && angle == 0) {
      parts.emplace_back(start, i);
      start = i + 1;
    }
  }
  return parts;
}

/// Exported function declarations — headers only (index_file gates on the
/// extension). The scan is token-level: a candidate is `name(...)` followed
/// by a declaration tail (`;`, `{`, `const`, `noexcept`, `override`, `->`,
/// an attribute macro, ...), and survives only if every parameter is
/// declaration-shaped (a type followed by a name, a type-like single token,
/// `void`, or `...`). Call expressions fail the parameter test — their
/// arguments are plain identifiers, literals, or member accesses — so
/// inline member-function bodies do not pollute the index.
void extract_function_decls(std::string_view stripped, FileIndex& out) {
  for (std::size_t p = 0; p < stripped.size(); ++p) {
    if (stripped[p] != '(') continue;
    std::size_t e = p;
    while (e > 0 && (stripped[e - 1] == ' ' || stripped[e - 1] == '\t' ||
                     stripped[e - 1] == '\n'))
      --e;
    if (e == 0 || !ident_char(stripped[e - 1])) continue;
    std::size_t b = e;
    while (b > 0 && ident_char(stripped[b - 1])) --b;
    const std::string name(stripped.substr(b, e - b));
    if (name[0] >= '0' && name[0] <= '9') continue;
    if (keyword_before_paren(name)) continue;
    // `x.f(` / `p->f(` are member calls, never declarations.
    if (b > 0 && (stripped[b - 1] == '.' || stripped[b - 1] == '>')) continue;
    const std::size_t close = match(stripped, p, '(', ')');
    if (close == std::string_view::npos) continue;

    const std::size_t q = skip_spaces(stripped, close);
    bool tail_ok = false;
    if (q < stripped.size()) {
      const char t = stripped[q];
      if (t == ';' || t == '{' || t == ':' || t == '=') {
        tail_ok = true;
      } else if (t == '-' && q + 1 < stripped.size() && stripped[q + 1] == '>') {
        tail_ok = true;
      } else {
        const std::string kw = read_ident(stripped, q);
        tail_ok = kw == "const" || kw == "noexcept" || kw == "override" ||
                  kw == "final" ||
                  (!kw.empty() && std::all_of(kw.begin(), kw.end(), [](char c) {
                    return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
                  }));  // attribute macros (TAMPER_EXCLUDES, ...)
      }
    }
    if (!tail_ok) continue;

    const std::string_view body = stripped.substr(p + 1, close - p - 2);
    FunctionDecl decl;
    decl.name = name;
    decl.line = static_cast<int>(line_of(stripped, b) + 1);
    bool decl_like = true;
    for (const auto& [ps, pe] : split_params(body)) {
      std::string_view part = body.substr(ps, pe - ps);
      // Strip a default argument: the first top-level `=` that is not part
      // of a two-character operator ends the declarator.
      int depth = 0;
      for (std::size_t i = 0; i < part.size(); ++i) {
        const char c = part[i];
        if (c == '(' || c == '{' || c == '[' || c == '<') ++depth;
        else if (c == ')' || c == '}' || c == ']' || c == '>') --depth;
        else if (c == '=' && depth == 0 && (i + 1 >= part.size() || part[i + 1] != '=') &&
                 (i == 0 || (part[i - 1] != '=' && part[i - 1] != '!' &&
                             part[i - 1] != '<' && part[i - 1] != '>'))) {
          part = part.substr(0, i);
          break;
        }
      }
      const std::string text = trimmed(part);
      if (text.empty()) {
        if (body.find(',') != std::string_view::npos) decl_like = false;
        continue;  // `()` — a zero-parameter declaration
      }
      if (text == "void" || text == "...") continue;
      if (text.find('"') != std::string::npos || text.find("->") != std::string::npos ||
          (text[0] >= '0' && text[0] <= '9')) {
        decl_like = false;  // literal or member-access argument: a call
        break;
      }
      // Trailing identifier = the parameter name (if declaration-shaped).
      std::size_t ne = text.size();
      std::size_t nb = ne;
      while (nb > 0 && ident_char(text[nb - 1])) --nb;
      const std::string tail_ident = text.substr(nb, ne - nb);
      const std::string head = trimmed(text.substr(0, nb));
      const bool named = !tail_ident.empty() && !type_keyword(tail_ident) &&
                         !(tail_ident[0] >= '0' && tail_ident[0] <= '9') && !head.empty();
      if (text.find('.') != std::string::npos) {
        decl_like = false;  // member access (".." already excluded above)
        break;
      }
      if (text.find('(') != std::string::npos) {
        // Function-typed parameters (std::function<...> cb) are fine; a
        // nested call (`g(x)`, `static_cast<T>(x)`) has no trailing name.
        if (!named || text.find('<') == std::string::npos) {
          decl_like = false;
          break;
        }
      }
      if (!named) {
        // Single token: must be type-like to be an unnamed parameter.
        const std::string tok = head.empty() ? tail_ident : collapse_ws(text);
        const bool type_like =
            type_keyword(tok) || tok.find("::") != std::string::npos ||
            tok.find('<') != std::string::npos ||
            (!tok.empty() && (tok.back() == '&' || tok.back() == '*')) ||
            (tok.size() > 2 && tok.compare(tok.size() - 2, 2, "_t") == 0);
        if (!type_like) {
          decl_like = false;  // plain identifier: a call argument
          break;
        }
        decl.params.push_back(
            {collapse_ws(text), "",
             static_cast<int>(line_of(stripped, p + 1 + ps) + 1)});
        continue;
      }
      std::size_t name_off = p + 1 + ps + nb;
      decl.params.push_back({collapse_ws(head), tail_ident,
                             static_cast<int>(line_of(stripped, name_off) + 1)});
    }
    if (decl_like) out.functions.push_back(std::move(decl));
  }
}

}  // namespace

FileIndex index_file(const std::string& path, std::string_view stripped_text) {
  FileIndex out;
  out.path = path;
  extract_lock_nestings(stripped_text, out);
  // Function signatures matter only where other modules can see them.
  const auto dot = path.rfind('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  if (ext == ".h" || ext == ".hpp") extract_function_decls(stripped_text, out);
  return out;
}

}  // namespace tamper::lint
