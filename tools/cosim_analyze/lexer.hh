/**
 * @file
 * A real C++ token lexer for cosim_analyze.
 *
 * Replaces the line-regex core the old cosim_lint used: rules and the
 * cross-TU passes operate on a token stream in which comments, string
 * literals (including raw strings), character literals, numbers, and
 * preprocessor directives are first-class token kinds. Text inside a
 * string or a comment can therefore never look like code to a rule,
 * and rules that *want* literal contents (fault sites, schema
 * strings) read them from String tokens instead of re-parsing lines.
 *
 * The lexer is deliberately not a preprocessor: macros are not
 * expanded, and a directive is captured as one Directive token holding
 * the whole logical line (backslash continuations folded in). That is
 * exactly the right granularity for include extraction and header
 * guard checking, and it keeps the lexer a pure function of the file
 * contents.
 *
 * Multi-character punctuation: only "::" and "->" are fused, because
 * rules key on them (qualified names, member dereference). "<<"/">>"
 * are two tokens each so template-argument scanning can count '<'/'>'
 * without shift-operator special cases.
 */

#ifndef COSIM_TOOLS_COSIM_ANALYZE_LEXER_HH
#define COSIM_TOOLS_COSIM_ANALYZE_LEXER_HH

#include <cstddef>
#include <string>
#include <vector>

namespace cosim_analyze {

enum class TokKind {
    Ident,     ///< identifiers and keywords (no keyword table needed)
    Number,    ///< numeric literal, pp-number granularity
    String,    ///< string literal; text holds the *contents*
    CharLit,   ///< character literal; text holds the contents
    Punct,     ///< punctuation; "::" and "->" fused, rest single char
    Comment,   ///< // or block comment; text holds the full comment
    Directive, ///< whole preprocessor logical line, '#' included
};

struct Token
{
    TokKind kind = TokKind::Punct;
    std::string text;
    int line = 1;          ///< 1-based line the token starts on
    bool rawString = false; ///< String came from an R"(...)"

    bool
    is(TokKind k, const char* t) const
    {
        return kind == k && text == t;
    }

    bool isIdent(const char* t) const { return is(TokKind::Ident, t); }
    bool isPunct(const char* t) const { return is(TokKind::Punct, t); }
};

/**
 * The lexed file. `tokens` holds everything, in order, comments
 * included; `code` holds indexes into `tokens` of the non-comment,
 * non-directive tokens, which is the view almost every rule walks.
 */
struct TokenStream
{
    std::vector<Token> tokens;
    std::vector<std::size_t> code; ///< indexes of code tokens

    const Token&
    codeTok(std::size_t i) const
    {
        return tokens[code[i]];
    }

    std::size_t codeSize() const { return code.size(); }
};

/** Lex @p content. Total function: malformed input (unterminated
 * literal or comment) yields a best-effort tail token, never a
 * failure, so the analyzer can still report on broken files. */
TokenStream lex(const std::string& content);

/** Directive keyword of a Directive token's text: "#  include <x>"
 * -> "include". Empty when the '#' stands alone. */
std::string directiveKeyword(const std::string& directive_text);

/** Parsed #include path, empty when @p directive_text is not an
 * include. */
struct IncludePath
{
    std::string path;
    bool angled = false;
};
IncludePath parseIncludeDirective(const std::string& directive_text);

} // namespace cosim_analyze

#endif // COSIM_TOOLS_COSIM_ANALYZE_LEXER_HH
