"""Count the bundled soliloquy under every reasonable rule.

The published experiment says its source text totals 1,520 characters
without saying what was counted: line breaks in or out, punctuation in or
out. Rather than guessing, the census counts under four normalizations and
flags whichever equals the published total. (Spoiler: two do. The raw
count, line breaks included, and the whitespace-collapsed count are both
exactly 1,520.)
"""

from monkeytyper import corpus_census, hamlet_soliloquy

text = hamlet_soliloquy()
print(f"bundled corpus: {len(text)} characters, {text.count(chr(10)) + 1} lines")
print(f"opening: {text[:44]!r}")

report = corpus_census(text)
print()
for line in report.lines():
    print(line)

# The same operation works on any text.
print()
for line in corpus_census("To be, or not to be").lines():
    print(line)
